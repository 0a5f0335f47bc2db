package sim

import (
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
)

func TestTracerRecordsAllStages(t *testing.T) {
	var sb strings.Builder
	cfg := DefaultConfig(PaperCache(), 2000)
	s := New(cfg, testStream("compress"))
	s.SetTracer(&WriterTracer{W: &sb})
	s.Run()
	out := sb.String()
	for _, stage := range []string{"dispatch", "issue", "complete", "writeback", "commit"} {
		if !strings.Contains(out, stage) {
			t.Errorf("trace missing %q events", stage)
		}
	}
	if !strings.Contains(out, "IntALU") {
		t.Error("trace missing instruction rendering")
	}
}

func TestTracerWindowing(t *testing.T) {
	var sb strings.Builder
	cfg := DefaultConfig(Mono1Cycle(core.Unlimited, core.Unlimited), 2000)
	s := New(cfg, testStream("compress"))
	s.SetTracer(&WriterTracer{W: &sb, From: 100, To: 110})
	s.Run()
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if line == "" {
			continue
		}
		var cyc uint64
		if _, err := fmtSscanfCycle(line, &cyc); err != nil {
			t.Fatalf("unparseable trace line %q", line)
		}
		if cyc < 100 || cyc > 110 {
			t.Fatalf("event outside window: %q", line)
		}
	}
}

// fmtSscanfCycle extracts the bracketed cycle from a trace line.
func fmtSscanfCycle(line string, out *uint64) (int, error) {
	i := strings.IndexByte(line, '[')
	j := strings.IndexByte(line, ']')
	if i < 0 || j <= i {
		return 0, errBadLine
	}
	var v uint64
	for _, c := range strings.TrimSpace(line[i+1 : j]) {
		if c < '0' || c > '9' {
			return 0, errBadLine
		}
		v = v*10 + uint64(c-'0')
	}
	*out = v
	return 1, nil
}

var errBadLine = &badLineError{}

type badLineError struct{}

func (*badLineError) Error() string { return "bad trace line" }

func TestTracerDisabledByDefault(t *testing.T) {
	// Simply runs without a tracer; the hot path must not panic and the
	// result must be identical to a traced run.
	cfg := DefaultConfig(PaperCache(), 5000)
	plain := New(cfg, testStream("li")).Run()

	traced := New(cfg, testStream("li"))
	traced.SetTracer(&WriterTracer{W: discardWriter{}})
	got := traced.Run()
	if plain.IPC != got.IPC || plain.Cycles != got.Cycles {
		t.Errorf("tracing changed results: %v vs %v", plain.IPC, got.IPC)
	}
}

// TestMispredictStallsChargeBranchBucket runs one script with and
// without mispredicted branches: the cycle fetch waits for a resolved
// branch's redirect is a branch stall, so the I-cache stall count must
// not depend on the mispredicts. Every instruction shares one PC, so
// both runs miss the I-cache exactly once, whatever their fetch groups.
func TestMispredictStallsChargeBranchBucket(t *testing.T) {
	const pc = 0x1000
	script := func(branches bool) *scriptStream {
		rng := rand.New(rand.NewPCG(1, 2))
		var in []isa.Instr
		for i := 0; i < 400; i++ {
			if i%8 == 7 {
				if branches {
					in = append(in, isa.Instr{PC: pc, Class: isa.Branch, Dest: isa.RegNone,
						Src1: isa.IntReg(1), Src2: isa.RegNone, Taken: rng.IntN(2) == 0, Target: pc})
				} else {
					in = append(in, isa.Instr{PC: pc, Class: isa.IntALU, Dest: isa.RegNone,
						Src1: isa.IntReg(1), Src2: isa.RegNone})
				}
				continue
			}
			in = append(in, isa.Instr{PC: pc, Class: isa.IntALU, Dest: isa.IntReg(1 + i%4),
				Src1: isa.IntReg(1 + (i+1)%4), Src2: isa.RegNone})
		}
		return &scriptStream{script: in,
			filler: isa.Instr{PC: pc, Class: isa.IntALU, Dest: isa.IntReg(5), Src1: isa.IntReg(0), Src2: isa.RegNone}}
	}
	u := core.Unlimited
	runScript := func(branches bool) Result {
		return New(DefaultConfig(Mono1Cycle(u, u), 400), script(branches)).Run()
	}
	with, without := runScript(true), runScript(false)
	if with.Mispredicts == 0 || with.BranchStallCycles == 0 {
		t.Fatalf("script never mispredicted (mispredicts %d, branch stalls %d)", with.Mispredicts, with.BranchStallCycles)
	}
	if without.Mispredicts != 0 || without.BranchStallCycles != 0 {
		t.Fatalf("branch-free script stalled on branches: %+v", without)
	}
	if with.ICacheStallCycles != without.ICacheStallCycles {
		t.Errorf("I-cache stall cycles %d with %d mispredicts, %d without: mispredicts charged to the I-cache",
			with.ICacheStallCycles, with.Mispredicts, without.ICacheStallCycles)
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestStallCountersPopulated(t *testing.T) {
	r := run(t, Mono1Cycle(4, 2), "gcc", 40000)
	if r.BranchStallCycles == 0 {
		t.Error("no branch stall cycles recorded on a mispredicting code")
	}
	if r.ICacheStallCycles == 0 {
		t.Error("no I-cache stall cycles recorded on a large-footprint code")
	}
	if r.BranchStallCycles+r.ICacheStallCycles >= r.Cycles {
		t.Error("stall cycles exceed total cycles")
	}
}

func TestFUConflictsUnderNarrowMachine(t *testing.T) {
	cfg := DefaultConfig(Mono1Cycle(core.Unlimited, core.Unlimited), 30000)
	cfg.SimpleInt, cfg.MemPorts = 1, 1 // starve the pools
	r := New(cfg, testStream("compress")).Run()
	if r.FUConflicts == 0 {
		t.Error("no FU conflicts on a 1-ALU machine at 8-wide issue")
	}
	wide := run(t, Mono1Cycle(core.Unlimited, core.Unlimited), "compress", 30000)
	if r.IPC >= wide.IPC {
		t.Errorf("starved machine (%.3f) should lose to the full machine (%.3f)", r.IPC, wide.IPC)
	}
}

func TestBranchStallsGrowWithRFLatency(t *testing.T) {
	u := core.Unlimited
	one := run(t, Mono1Cycle(u, u), "go", 40000)
	two := run(t, Mono2CycleFull(u, u), "go", 40000)
	if two.BranchStallCycles <= one.BranchStallCycles {
		t.Errorf("branch stall cycles did not grow with RF latency: %d vs %d",
			two.BranchStallCycles, one.BranchStallCycles)
	}
}

func TestTinyWindowStillCorrect(t *testing.T) {
	cfg := DefaultConfig(PaperCache(), 10000)
	cfg.WindowSize = 4
	cfg.FetchQueue = 8
	cfg.LSQSize = 4
	r := New(cfg, testStream("compress")).Run()
	if r.Instructions == 0 || r.IPC <= 0 || r.IPC > 4 {
		t.Errorf("tiny-window run implausible: %+v", r.IPC)
	}
	wide := run(t, PaperCache(), "compress", 10000)
	if r.IPC >= wide.IPC {
		t.Errorf("4-entry window (%.3f) should lose to 128 (%.3f)", r.IPC, wide.IPC)
	}
}

func TestZeroWarmupSupported(t *testing.T) {
	cfg := DefaultConfig(Mono1Cycle(core.Unlimited, core.Unlimited), 10000)
	cfg.WarmupInstructions = 0
	r := New(cfg, testStream("compress")).Run()
	if r.Instructions < 10000 {
		t.Errorf("zero-warmup run measured %d instructions", r.Instructions)
	}
}

func TestMixedFPStoreTiming(t *testing.T) {
	// FP benchmarks store FP data through integer address registers; this
	// exercises the split-store path across both register files.
	r := run(t, PaperCache(), "swim", 30000)
	if r.FPFile.Reads == 0 || r.IntFile.Reads == 0 {
		t.Error("mixed-file reads missing on an FP workload")
	}
}

func TestLSQPressureThrottlesDispatch(t *testing.T) {
	cfg := DefaultConfig(Mono1Cycle(core.Unlimited, core.Unlimited), 20000)
	cfg.LSQSize = 2
	r := New(cfg, testStream("swim")).Run()
	wide := run(t, Mono1Cycle(core.Unlimited, core.Unlimited), "swim", 20000)
	if r.IPC >= wide.IPC {
		t.Errorf("2-entry LSQ (%.3f) should lose to 64 (%.3f)", r.IPC, wide.IPC)
	}
	if r.DispatchStalls == 0 {
		t.Error("no dispatch stalls with a 2-entry LSQ")
	}
}
