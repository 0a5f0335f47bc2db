package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profiler takes the traced run's CPU profile over each measured phase
// and one heap profile at the end. A nil *profiler is the untraced run.
type profiler struct {
	dir  string
	cpu  []string
	f    *os.File
	heap string
	err  error
}

func (p *profiler) start() {
	if p == nil || p.err != nil {
		return
	}
	path := filepath.Join(p.dir, fmt.Sprintf("cpu-%d.pprof", len(p.cpu)))
	f, err := os.Create(path)
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		p.err = err
		return
	}
	p.f = f
	p.cpu = append(p.cpu, path)
}

func (p *profiler) stop() {
	if p == nil || p.f == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil && p.err == nil {
		p.err = err
	}
	p.f = nil
}

// heapProfile records live heap by allocation site, after a collection.
func (p *profiler) heapProfile() {
	if p == nil || p.err != nil {
		return
	}
	runtime.GC()
	p.heap = filepath.Join(p.dir, "heap.pprof")
	f, err := os.Create(p.heap)
	if err == nil {
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	p.err = err
}

// sample is one folded profile entry: a value and its call stack, leaf
// first.
type sample struct {
	value float64
	stack []string
}

// pprofTraces runs `go tool pprof -traces` over profiles and parses its
// text: entries separated by dashed lines, each opening with the value
// followed by the leaf frame, then one caller frame per line.
func pprofTraces(ctx context.Context, sampleIndex string, files ...string) ([]sample, error) {
	args := []string{"tool", "pprof", "-traces"}
	if sampleIndex != "" {
		args = append(args, "-sample_index="+sampleIndex)
	}
	cmd := exec.CommandContext(ctx, "go", append(args, files...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out)
}

func parseTraces(out []byte) ([]sample, error) {
	var samples []sample
	var cur *sample
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
		case cur != nil:
			cur.stack = append(cur.stack, fields[0])
		case len(fields) >= 2:
			// Header lines and heap profiles' "bytes:" labels do not
			// parse as a value and are skipped.
			if v, err := parseValue(fields[0]); err == nil {
				samples = append(samples, sample{value: v, stack: []string{fields[1]}})
				cur = &samples[len(samples)-1]
			}
		}
	}
	return samples, sc.Err()
}

// parseValue reads pprof's unit-suffixed numbers: durations (ns … s) and
// sizes (B … GB), normalized to seconds and bytes.
func parseValue(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{
		{"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"hrs", 3600}, {"mins", 60}, {"s", 1},
		{"kB", 1 << 10}, {"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40}, {"B", 1},
	}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

const (
	pkgSim   = "repro/internal/sim."
	pkgTrace = "repro/internal/trace."
)

// simStages maps simulator methods to the pipeline stage whose self time
// they are. Methods not listed (the cycle loop, result assembly) count
// toward no stage.
var simStages = map[string]string{
	"fetch":              "fetch",
	"dispatch":           "dispatch",
	"lsqKind":            "dispatch",
	"issue":              "issue",
	"issueScan":          "issue",
	"tryReadOperands":    "issue",
	"readLatency":        "issue",
	"doIssue":            "issue",
	"prefetchFirstPair":  "issue",
	"scheduleReady":      "issue",
	"readyHold":          "issue",
	"processReadyEvents": "issue",
	"setReady":           "issue",
	"clearReady":         "issue",
	"hasReadyConsumer":   "issue",
	"take":               "issue",
	"poolFor":            "issue",
	"node":               "issue",
	"nodeOwner":          "issue",
	"processCompletions": "writeback",
	"processWritebacks":  "writeback",
	"wakeConsumers":      "writeback",
	"unlinkConsumers":    "writeback",
	"commit":             "commit",
}

// method returns the last dot-separated element of a pprof function name:
// "repro/internal/sim.(*Simulator).fetch" → "fetch".
func method(frame string) string {
	if i := strings.LastIndexByte(frame, '.'); i >= 0 {
		return frame[i+1:]
	}
	return frame
}

func hasFrame(stack []string, prefix string) bool {
	for _, f := range stack {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// cpuBucket names the per-layer share a CPU sample's self time counts
// toward, or "" for none. Shares are of all samples in the phase.
func cpuBucket(stack []string) string {
	leaf := stack[0]
	serverSide := hasFrame(stack, "net/http.(*conn).serve") || hasFrame(stack, "repro/internal/server.")
	switch {
	case strings.HasPrefix(leaf, pkgSim+"(*Frontend)"), strings.HasPrefix(leaf, pkgSim+"(*feed)"),
		strings.HasPrefix(leaf, pkgSim+"(*Lockstep)"):
		return "sim.lockstep_share"
	case strings.HasPrefix(leaf, pkgSim):
		if st := simStages[method(leaf)]; st != "" {
			return "sim." + st + "_share"
		}
		return ""
	case strings.HasPrefix(leaf, pkgTrace+"(*Generator)"):
		return "trace.walk_share"
	case strings.HasPrefix(leaf, pkgTrace):
		return "trace.build_share"
	}
	for _, pkg := range []string{"core", "lsq", "bpred", "cache", "rename", "tenant"} {
		if strings.HasPrefix(leaf, "repro/internal/"+pkg+".") {
			return pkg + ".share"
		}
	}
	if strings.HasPrefix(leaf, "main.") {
		return "loadgen.share"
	}
	if serverSide && strings.HasPrefix(leaf, "encoding/json.") {
		return "server.json_share"
	}
	if serverSide {
		for _, p := range []string{"net/http.", "net/textproto.", "net.", "internal/poll.", "syscall.", "bufio."} {
			if strings.HasPrefix(leaf, p) {
				return "server.http_share"
			}
		}
	}
	return ""
}

// heapBucket attributes live bytes to the innermost repository package on
// the allocation stack.
func heapBucket(stack []string) string {
	for _, f := range stack {
		if !strings.HasPrefix(f, "repro/") && !strings.HasPrefix(f, "main.") {
			continue
		}
		for _, pkg := range []string{"server", "warehouse", "sweep", "wal", "trace"} {
			if strings.HasPrefix(f, "repro/internal/"+pkg+".") {
				return "heap." + pkg + "_mb"
			}
		}
		return "heap.other_mb"
	}
	return "heap.other_mb"
}

// cpuBuckets lists every share cpuBucket can produce, so each is reported
// (as 0) even when a workload never runs that layer.
var cpuBuckets = []string{
	"sim.fetch_share", "sim.dispatch_share", "sim.issue_share", "sim.writeback_share",
	"sim.commit_share", "sim.lockstep_share", "core.share", "lsq.share", "bpred.share",
	"cache.share", "rename.share", "trace.walk_share", "trace.build_share",
	"server.http_share", "server.json_share", "tenant.share", "loadgen.share",
}

var heapBuckets = []string{
	"heap.server_mb", "heap.warehouse_mb", "heap.sweep_mb", "heap.wal_mb", "heap.trace_mb", "heap.other_mb",
}

// fold turns the phase's profiles into the per-layer shares and heap
// figures.
func (p *profiler) fold(ctx context.Context, v map[string]float64) error {
	if p.err != nil {
		return p.err
	}
	for _, b := range cpuBuckets {
		v[b] = 0
	}
	for _, b := range heapBuckets {
		v[b] = 0
	}
	cpu, err := pprofTraces(ctx, "", p.cpu...)
	if err != nil {
		return err
	}
	var total float64
	for _, s := range cpu {
		total += s.value
		if b := cpuBucket(s.stack); b != "" {
			v[b] += s.value
		}
	}
	if total > 0 {
		for _, b := range cpuBuckets {
			v[b] /= total
		}
	}
	heap, err := pprofTraces(ctx, "inuse_space", p.heap)
	if err != nil {
		return err
	}
	for _, s := range heap {
		v[heapBucket(s.stack)] += s.value / (1 << 20)
	}
	return nil
}
