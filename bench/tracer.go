package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own code around a public function of that layer. Times are
// nanoseconds since the traced phase began; Parent is the enclosing
// span's ID (0 for a root) and Sweep the sweep the call served, where
// the caller knows it.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent,omitempty"`
	Sweep  string `json:"sweep,omitempty"`
}

// maxSpans caps the spans kept for the trace file; durations for the
// per-layer percentiles are kept for every call regardless.
const maxSpans = 200000

// tracer records spans, per-name durations and counters for the traced
// run. A nil *tracer is the untraced run: every method is a no-op, so the
// workloads carry one code path.
type tracer struct {
	t0 time.Time

	mu        sync.Mutex
	spans     []span
	nextID    int
	dropped   int
	dur       map[string][]float64 // span name → durations in µs
	count     map[string]float64
	results   map[sweep.Key]sim.Result // distinct results the workload delivered
	simulated map[sweep.Key]bool       // keys simulated in the phase
}

func newTracer() *tracer {
	return &tracer{
		t0:        time.Now(),
		dur:       map[string][]float64{},
		count:     map[string]float64{},
		results:   map[sweep.Key]sim.Result{},
		simulated: map[sweep.Key]bool{},
	}
}

// begin opens a span and returns its ID and the function that closes it.
func (t *tracer) begin(name string, parent int, sweepID string) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id, func() {
		end := time.Now()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.dur[name] = append(t.dur[name], us(end.Sub(start)))
		if len(t.spans) >= maxSpans {
			t.dropped++
			return
		}
		t.spans = append(t.spans, span{
			ID: id, Name: name, Parent: parent, Sweep: sweepID,
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		})
	}
}

// add bumps a named counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.count[name] += v
	t.mu.Unlock()
}

// sample records one duration under name without a span.
func (t *tracer) sample(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dur[name] = append(t.dur[name], us(d))
	t.mu.Unlock()
}

// keep records a result the workload delivered, for the modeled-machine
// statistics; simulated marks one computed (not found) in this phase.
func (t *tracer) keep(k sweep.Key, res sim.Result, simulated bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.results[k] = res
	if simulated {
		t.simulated[k] = true
	}
	t.mu.Unlock()
}

// durations returns a copy of the recorded durations (µs) of one span name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.dur[name]...)
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count[name]
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedCache times every call into a sweep.Cache. It is transparent: it
// forwards Len and Reset, which sweep.Runner's CacheLen and ResetCache
// find by type assertion, and reports -1 / does nothing exactly when the
// wrapped cache lacks them, as the runner would.
type timedCache struct {
	inner    sweep.Cache
	tr       *tracer
	get, put string // span names
}

func (c *timedCache) Get(k sweep.Key) (sim.Result, bool) {
	_, end := c.tr.begin(c.get, 0, "")
	res, ok := c.inner.Get(k)
	end()
	if ok {
		c.tr.add(c.get+".hits", 1)
		c.tr.keep(k, res, false)
	}
	return res, ok
}

func (c *timedCache) Put(k sweep.Key, res sim.Result) {
	_, end := c.tr.begin(c.put, 0, "")
	c.inner.Put(k, res)
	end()
	c.tr.keep(k, res, true)
}

func (c *timedCache) Len() int {
	if l, ok := c.inner.(interface{ Len() int }); ok {
		return l.Len()
	}
	return -1
}

func (c *timedCache) Reset() {
	if r, ok := c.inner.(interface{ Reset() }); ok {
		r.Reset()
	}
}

// simBatch is grid-cold's traced RunnerConfig.SimulateBatch: it times
// sweep.SimulateLockstep, the runner's own default batch path.
func (t *tracer) simBatch(js []sweep.Job) []sim.Result {
	_, end := t.begin("sim.batch", 0, "")
	res := sweep.SimulateLockstep(js)
	end()
	var instrs uint64
	for i := range res {
		instrs += res[i].Instructions
		t.keep(js[i].Key(), res[i], true)
	}
	t.add("sim.jobs", float64(len(js)))
	t.add("sim.instrs", float64(instrs))
	return res
}

// parseExposition reads Prometheus text exposition into
// "name{labels}" → value, skipping comments.
func parseExposition(body string) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m
}
