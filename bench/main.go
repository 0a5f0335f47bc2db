// Command bench is the repository's end-to-end benchmark: four workloads
// that cover the simulator, the sweep engine, the served sweep path
// (store, journal, warehouse, tenancy) and the warehouse query API, each
// run in its own child process so a crash fails one workload, not the run.
//
// From the repository root:
//
//	bash bench/run.sh -seed 1                      # all four workloads
//	bash bench/run.sh -workload serve-warm -seed 2 # one workload
//	bash bench/run.sh -workload grid-cold -trace 1 # plus a traced run
//
// Every metric prints as "<workload> <metric> <value> <unit>"; the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. With -trace 1 the JSON carries the
// per-layer metrics of a separate traced run, which also writes spans and
// profiles under -trace-dir. The amount of work is fixed (see size), so
// -seconds, which benchmark runners pass, changes nothing. A workload
// split into parts (serve-open) runs one child process per part and
// reports their mean. See README.md for the workloads, the metrics and
// the comparison protocol.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one workload process, so a run ends within three
// minutes even when a workload hangs.
const childTimeout = 170 * time.Second

type options struct {
	workload string
	seed     uint64
	part     int
	trace    bool
	traceDir string
	stateDir string
}

func main() {
	var o options
	var trace int
	var child bool
	var screenRange string
	flag.StringVar(&o.workload, "workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64("seconds", 15, "run length benchmark runners pass; ignored: the work is fixed, about 15 s per workload on 2 cores")
	flag.IntVar(&trace, "trace", 0, "1: also make a traced run and report its per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", "", "traced-run output (spans, profiles); default .bench_build/trace-out")
	flag.StringVar(&o.stateDir, "state-dir", "", "scratch state for servers; default .bench_build/state")
	flag.BoolVar(&child, "child", false, "run one workload in this process (used by the parent)")
	flag.IntVar(&o.part, "part", 0, "with -child: which part of a split workload to run")
	flag.StringVar(&screenRange, "screen", "", "LO:HI: print the trace seeds in [LO, HI) the simulator completes, for tracePool")
	flag.Parse()
	if screenRange != "" {
		var lo, hi uint64
		if _, err := fmt.Sscanf(screenRange, "%d:%d", &lo, &hi); err != nil || lo >= hi {
			fmt.Fprintf(os.Stderr, "bench: -screen wants LO:HI, got %q\n", screenRange)
			os.Exit(2)
		}
		os.Exit(screen(lo, hi))
	}
	o.trace = trace == 1
	root := repoRoot()
	if o.traceDir == "" {
		o.traceDir = filepath.Join(root, ".bench_build", "trace-out")
	}
	if o.stateDir == "" {
		o.stateDir = filepath.Join(root, ".bench_build", "state")
	}
	if (trace != 0 && trace != 1) || (o.workload != "all" && lookup(o.workload) == nil) ||
		o.part < 0 || o.part >= full.parts(o.workload) {
		fmt.Fprintf(os.Stderr, "bench: bad arguments (workload %q, trace %d, part %d)\n", o.workload, trace, o.part)
		os.Exit(2)
	}
	if child {
		os.Exit(runChild(o))
	}
	os.Exit(runParent(o, root))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func lookup(name string) func(context.Context, *env) error {
	for _, w := range workloads {
		if w.name == name {
			return w.run
		}
	}
	return nil
}

// repoRoot is the nearest ancestor of the working directory holding
// bench/go.mod, so the defaults land inside the checkout wherever the
// command is started from.
func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := wd; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "bench", "go.mod")); err == nil {
			return d
		}
		if filepath.Dir(d) == d {
			return wd
		}
	}
}

// report is what a child hands its parent: counts, failure texts, the
// output digest and every measured value by metric name.
type report struct {
	Workload  string             `json:"workload"`
	Part      int                `json:"part"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digest    string             `json:"digest,omitempty"`
	Values    map[string]float64 `json:"values"`
}

// result is the last output line: the machine-readable summary.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runParent(o options, root string) int {
	names := workloadNames()
	if o.workload != "all" {
		names = []string{o.workload}
	}
	digests, err := loadDigests(filepath.Join(root, "bench", "digests.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		var parts []*report
		for k := 0; k < full.parts(name); k++ {
			p := spawn(o, name, k, false)
			checkDigest(p, digests, o)
			parts = append(parts, p)
		}
		rep := merge(parts)
		if o.trace {
			// Per-layer figures need no more than one part's work.
			traced := spawn(o, name, 0, true)
			checkDigest(traced, digests, o)
			if p, q := rep.Values["op_p50_ms"], traced.Values["op_p50_ms"]; p > 0 {
				traced.Values["trace.overhead_ratio"] = q / p
			}
			rep.Attempted += traced.Attempted
			rep.Failed += traced.Failed
			rep.Errors = append(rep.Errors, traced.Errors...)
			for k, v := range traced.Values {
				if layerUnit(k) != "" {
					rep.Values[k] = v
				}
			}
		}
		printReport(rep, o)
		out.Attempted += rep.Attempted
		out.Failed += rep.Failed
		out.Correct = out.Correct && rep.Failed == 0 && len(rep.Errors) == 0
		for _, m := range resultMetrics(o.trace) {
			key := m.name
			if len(names) > 1 {
				key = name + "." + m.name
			}
			out.Metrics[key] = metricValue{Value: rep.Values[m.name], Unit: m.unit}
		}
	}
	if out.Attempted == 0 {
		out.Attempted = 1
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// spawn runs one workload in a child process and returns its report. A
// crash, a timeout or an unreadable report yields a report in which every
// op failed, carrying the panic text, so the run itself is never lost.
func spawn(o options, name string, part int, traced bool) *report {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		return crashed(name, part, err.Error())
	}
	args := []string{"-child", "-workload", name, "-part", strconv.Itoa(part), "-seed", strconv.FormatUint(o.seed, 10),
		"-trace-dir", o.traceDir, "-state-dir", o.stateDir}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	var stdout bytes.Buffer
	stderr := &tail{w: os.Stderr}
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	cmd.WaitDelay = 5 * time.Second
	runErr := cmd.Run()
	if cmd.Process != nil {
		// A killed child leaves its server state behind.
		os.RemoveAll(childDir(o.stateDir, name, cmd.Process.Pid))
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil || runErr != nil {
		why := stderr.panicText()
		if why == "" && runErr != nil {
			why = runErr.Error()
		}
		if ctx.Err() != nil {
			why = fmt.Sprintf("timed out after %s", childTimeout)
		}
		if why == "" {
			why = "no report"
		}
		return crashed(name, part, why)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.Values["max_rss_mb"] = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return &rep
}

func crashed(name string, part int, why string) *report {
	return &report{Workload: name, Part: part, Attempted: 1, Failed: 1,
		Errors: []string{"workload crashed: " + why}, Values: map[string]float64{"error_ratio": 1}}
}

// merge folds the reports of a workload's parts into one. Ops and
// failures add up, every value is the mean over the parts that report it
// (each part runs an equal share of the work), samples add up, and the
// digest lists the parts' digests in order.
func merge(parts []*report) *report {
	if len(parts) == 1 {
		return parts[0]
	}
	out := &report{Workload: parts[0].Workload, Values: map[string]float64{}}
	count := map[string]int{}
	var digests []string
	for _, p := range parts {
		out.Attempted += p.Attempted
		out.Failed += p.Failed
		out.Errors = append(out.Errors, p.Errors...)
		digests = append(digests, p.Digest)
		for k, v := range p.Values {
			out.Values[k] += v
			count[k]++
		}
	}
	for k, n := range count {
		if k != "samples" {
			out.Values[k] /= float64(n)
		}
	}
	out.Values["error_ratio"] = float64(out.Failed) / float64(out.Attempted)
	out.Digest = strings.Join(digests, ",")
	return out
}

// tail passes a child's standard error through and keeps its end, where
// a panic's text is.
type tail struct {
	w   io.Writer
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.buf = append(t.buf, p...)
	if len(t.buf) > 64<<10 {
		t.buf = t.buf[len(t.buf)-32<<10:]
	}
	return t.w.Write(p)
}

// panicText is the last panic's message line; the full dump has passed
// through to standard error.
func (t *tail) panicText() string {
	s := string(t.buf)
	i := strings.LastIndex(s, "panic: ")
	if i < 0 {
		return ""
	}
	line, _, _ := strings.Cut(s[i:], "\n")
	return line
}

// loadDigests reads the pinned output digests: seed → workload.
func loadDigests(path string) (map[string]map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading digests: %w", err)
	}
	var d map[string]map[string]string
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// checkDigest compares the rows' digest with the pinned one for this
// seed, when there is one. A mismatch fails every op of the run. A split
// workload pins one digest per part, under "<workload>/<part>".
func checkDigest(rep *report, digests map[string]map[string]string, o options) {
	name := rep.Workload
	if full.parts(name) > 1 {
		name = fmt.Sprintf("%s/%d", name, rep.Part)
	}
	want := digests[digestKey(o.seed)][name]
	if want == "" || rep.Digest == "" || rep.Digest == want {
		return
	}
	rep.Failed = rep.Attempted
	rep.Values["error_ratio"] = 1
	rep.Errors = append(rep.Errors, fmt.Sprintf("output digest %s, pinned %s", rep.Digest, want))
}

func digestKey(seed uint64) string { return fmt.Sprintf("seed=%d", seed) }

func printReport(rep *report, o options) {
	for _, e := range rep.Errors {
		fmt.Printf("%s error %s\n", rep.Workload, e)
	}
	if rep.Digest != "" {
		fmt.Printf("%s digest %s (%s)\n", rep.Workload, rep.Digest, digestKey(o.seed))
	}
	for _, m := range printOrder(rep.Values) {
		fmt.Printf("%s %s %.6g %s\n", rep.Workload, m.name, rep.Values[m.name], m.unit)
	}
}

// childDir is the state directory of the child process pid.
func childDir(stateDir, workload string, pid int) string {
	return filepath.Join(stateDir, fmt.Sprintf("%s-%d", workload, pid))
}

// runChild runs one workload in this process and prints its report as
// one JSON line.
func runChild(o options) int {
	e := &env{sz: &full, seed: o.seed, part: o.part}
	e.dir = childDir(o.stateDir, o.workload, os.Getpid())
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.dir)
	warmUp(warmUpTime)
	calib := calibrate()
	if o.trace {
		e.tr = newTracer()
		dir := filepath.Join(o.traceDir, o.workload)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		e.profile = &profiler{dir: dir}
		e.layers.tr = e.tr
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout-10*time.Second)
	defer cancel()
	rep := &report{Workload: o.workload, Part: o.part, Values: map[string]float64{}}
	err := lookup(o.workload)(ctx, e)
	if err != nil {
		e.tally.fail(fmt.Errorf("workload: %w", err))
	}
	rep.Attempted, rep.Failed, rep.Errors = e.tally.attempted, e.tally.failed, e.tally.errs
	rep.Digest = e.dig.sum()
	if err := e.values(rep.Values); err != nil {
		rep.Errors = append(rep.Errors, err.Error())
	}
	rep.Values["host.calib_ms"] = calib
	if o.trace && err == nil {
		if err := e.layerValues(ctx, rep.Values); err != nil {
			rep.Errors = append(rep.Errors, "traced run: "+err.Error())
		}
		for _, m := range perLayer {
			if _, ok := rep.Values[m.name]; !ok && m.name != "trace.overhead_ratio" {
				rep.Errors = append(rep.Errors, "traced run: no value for "+m.name)
			}
		}
		if err := e.tr.writeSpans(filepath.Join(e.profile.dir, "spans.jsonl")); err != nil {
			rep.Errors = append(rep.Errors, err.Error())
		}
	}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	return 0
}
