package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"repro/internal/sweep"
	"repro/internal/trace"
)

// metric is one reported number's name, unit and direction.
type metric struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run. Each workload defines its op: grid-cold a
// per-benchmark sweep through a fresh runner, serve-warm and serve-open a
// sweep streamed to its last row, query-mix a query or a warm resubmit.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"first_row_p50_ms", "ms", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// extras print as text lines beside the end-to-end metrics but are not
// part of the result line: workload-specific views of the same run.
var extras = []metric{
	{"error_ratio", "ratio", "lower"},
	{"host.calib_ms", "ms", "lower"},
	{"samples", "count", "higher"},
	{"sim_minstr_per_s", "Minstr/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"sweep_p50_ms", "ms", "lower"},
	{"sweep_p90_ms", "ms", "lower"},
	{"sweep_p99_ms", "ms", "lower"},
	{"sweep_first_row_p50_ms", "ms", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"query_p90_ms", "ms", "lower"},
	{"query_p99_ms", "ms", "lower"},
	{"ipc_hmean_int", "IPC", "higher"},
	{"ipc_hmean_fp", "IPC", "higher"},
}

func resultMetrics(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

func layerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// printOrder lists the metrics present in values: end-to-end first, then
// extras, then per-layer.
func printOrder(values map[string]float64) []metric {
	var out []metric
	seen := map[string]bool{}
	for _, list := range [][]metric{endToEnd, extras, perLayer} {
		for _, m := range list {
			if _, ok := values[m.name]; ok && !seen[m.name] {
				seen[m.name] = true
				out = append(out, m)
			}
		}
	}
	return out
}

// values computes the end-to-end metrics and extras of a finished run.
// When every window holds enough ops for a p90, each window is summarized
// on its own and the run reports the median window, so a stretch the host
// ran slowly moves it less; otherwise the samples of all windows pool.
// The extras always pool. Percentiles that lack their sample floor are
// errors, never guesses.
func (e *env) values(v map[string]float64) error {
	t := &e.tally
	var errs []error
	pct := func(name string, xs []float64, q float64) float64 {
		x, err := percentile(xs, q)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
		return x
	}
	perWindow := len(t.windows) > 0
	for _, w := range t.windows {
		perWindow = perWindow && w.ops[1]-w.ops[0] >= 100
	}
	var tput, p50, p90, first []float64
	if perWindow {
		for _, w := range t.windows {
			ops := t.ops[w.ops[0]:w.ops[1]]
			tput = append(tput, float64(len(ops))/w.seconds)
			p50 = append(p50, pct("op_p50_ms", ops, 50))
			p90 = append(p90, pct("op_p90_ms", ops, 90))
			if fr := t.firstRow[w.firstRow[0]:w.firstRow[1]]; len(fr) > 0 {
				first = append(first, median(fr))
			}
		}
	} else {
		tput = []float64{float64(len(t.ops)) / e.phase.Seconds()}
		p50, p90, first = []float64{pct("op_p50_ms", t.ops, 50)}, []float64{pct("op_p90_ms", t.ops, 90)}, t.firstRow
	}
	for name, xs := range map[string][]float64{
		"ops_per_s": tput, "op_p50_ms": p50, "op_p90_ms": p90, "first_row_p50_ms": first, "setup_s": e.setups,
	} {
		if len(xs) == 0 {
			errs = append(errs, fmt.Errorf("%s: no samples", name))
			continue
		}
		v[name] = median(xs)
	}
	v["live_heap_mb"] = e.liveMB
	v["error_ratio"] = float64(t.failed) / math.Max(1, float64(t.attempted))
	v["samples"] = float64(len(t.ops))
	if s := e.phase.Seconds(); s > 0 {
		v["jobs_per_s"] = float64(t.rows) / s
		if e.simInstrs > 0 {
			v["sim_minstr_per_s"] = float64(e.simInstrs) / 1e6 / s
		}
	}
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"sweep_p50_ms", t.sweeps, 50}, {"sweep_p90_ms", t.sweeps, 90}, {"sweep_p99_ms", t.sweeps, 99},
		{"sweep_first_row_p50_ms", t.sweepRow, 50},
		{"query_p50_ms", t.queries, 50}, {"query_p90_ms", t.queries, 90}, {"query_p99_ms", t.queries, 99},
	} {
		if x, err := percentile(p.xs, p.q); err == nil {
			v[p.name] = x
		}
	}
	intH, fpH, err := ipcHmeans(e.dig.h)
	if err != nil {
		errs = append(errs, err)
	}
	v["ipc_hmean_int"], v["ipc_hmean_fp"] = intH, fpH
	return joinErrs(errs)
}

// ipcHmeans is the harmonic-mean IPC of the digested rows per suite,
// the Figure 6 summary statistic.
func ipcHmeans(ndjson []byte) (intH, fpH float64, err error) {
	rows, err := sweep.ReadRows(bytes.NewReader(ndjson))
	if err != nil {
		return 0, 0, err
	}
	var inv [2]float64
	var n [2]int
	for _, r := range rows {
		p, ok := trace.ByName(r.Benchmark)
		if !ok || r.IPC <= 0 {
			return 0, 0, fmt.Errorf("row %s/%s: bad benchmark or IPC", r.Benchmark, r.Arch)
		}
		i := 0
		if p.FP {
			i = 1
		}
		inv[i] += 1 / r.IPC
		n[i]++
	}
	h := func(i int) float64 {
		if n[i] == 0 {
			return 0
		}
		return float64(n[i]) / inv[i]
	}
	return h(0), h(1), nil
}

func joinErrs(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return fmt.Errorf("%v", errs)
}
