package repro

// One benchmark per paper table/figure, plus ablation benches for the
// design-space studies in experiments.Ablations. Each bench regenerates its
// experiment at a reduced instruction budget (benchInstructions) and
// reports the experiment's headline quantities via b.ReportMetric, so
// `go test -bench=. -benchmem` prints the reproduced numbers next to the
// timing. For full-budget runs use cmd/rfexp.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
)

const benchInstructions = 30000

// benchJSON selects a path for the BENCH_sim.json snapshot of the
// BenchmarkSim results, written after the benchmarks finish. CI gates the
// snapshot with cmd/benchgate (see the README's Performance section);
// refresh the committed baseline with:
//
//	go test -bench 'BenchmarkSim$|BenchmarkSweepRunner$' -benchtime 10x -run '^$' -benchjson BENCH_sim.json .
var benchJSON = flag.String("benchjson", "", "write a JSON snapshot of BenchmarkSim results to this path")

// benchSnapshot is the BENCH_sim.json schema. Cache, when present,
// carries the sweep-cache hit/miss counts recorded by
// BenchmarkSweepRunner; cmd/benchgate passes them through into its
// verdict JSON.
type benchSnapshot struct {
	Schema     int                    `json:"schema"`
	Go         string                 `json:"go"`
	Instrs     uint64                 `json:"instructions_per_run"`
	Benchmarks map[string]benchRecord `json:"benchmarks"`
	Cache      *sweep.CacheStats      `json:"cache,omitempty"`
}

// benchRecord is one benchmark's measurement.
type benchRecord struct {
	InstrsPerSec float64 `json:"instrs_per_sec"`
	SecPerOp     float64 `json:"sec_per_op"`
}

var (
	benchMu      sync.Mutex
	benchRecords = map[string]benchRecord{}
	benchCache   *sweep.CacheStats
)

func recordBench(name string, instrsPerSec, secPerOp float64) {
	benchMu.Lock()
	defer benchMu.Unlock()
	benchRecords[name] = benchRecord{InstrsPerSec: instrsPerSec, SecPerOp: secPerOp}
}

func recordCache(stats sweep.CacheStats) {
	benchMu.Lock()
	defer benchMu.Unlock()
	benchCache = &stats
}

// TestMain writes the benchmark snapshot once the run completes.
func TestMain(m *testing.M) {
	code := m.Run()
	if *benchJSON != "" && code == 0 && len(benchRecords) > 0 {
		snap := benchSnapshot{
			Schema: 1, Go: runtime.Version(),
			Instrs: benchInstructions, Benchmarks: benchRecords,
			Cache: benchCache,
		}
		data, err := json.MarshalIndent(snap, "", "  ")
		if err == nil {
			err = os.WriteFile(*benchJSON, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

// BenchmarkSim measures raw scheduler throughput (simulated instructions
// per wall second) on each register file organization. These are the
// numbers the CI benchmark gate tracks.
func BenchmarkSim(b *testing.B) {
	u := core.Unlimited
	cases := []struct {
		name string
		spec sim.RFSpec
	}{
		{"monolithic", sim.Mono1Cycle(u, u)},
		{"cache", sim.PaperCache()},
		{"onelevel", sim.OneLevelSpec(core.OneLevelConfig{
			Banks: 2, ReadPortsPerBank: 4, WritePortsPerBank: 2,
		})},
		{"replicated", sim.ReplicatedSpec(core.ReplicatedConfig{
			Clusters: 2, ReadPortsPerBank: 4, WritePortsPerBank: 4, RemoteDelay: 1,
		})},
	}
	prof, ok := trace.ByName("compress")
	if !ok {
		b.Fatal("unknown benchmark compress")
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(c.spec, benchInstructions)
				sim.New(cfg, trace.New(prof)).Run()
			}
			sec := b.Elapsed().Seconds()
			ips := float64(benchInstructions) * float64(b.N) / sec
			b.ReportMetric(ips, "instrs/s")
			recordBench("Sim/"+c.name, ips, sec/float64(b.N))
		})
	}
}

// BenchmarkSweepRunner measures the sweep engine end to end: each
// iteration runs the same small batch twice through one runner — a cold
// pass that simulates and a warm pass served entirely from the cache —
// so the number tracks both scheduler overhead and cache lookup cost.
// The final iteration's hit/miss counts land in the BENCH_sim.json
// snapshot's "cache" section (2 hits per cold+warm job pair wanted:
// the warm pass must be all hits).
func BenchmarkSweepRunner(b *testing.B) {
	u := core.Unlimited
	var jobs []sweep.Job
	for _, bench := range []string{"compress", "swim"} {
		prof, ok := trace.ByName(bench)
		if !ok {
			b.Fatalf("unknown benchmark %s", bench)
		}
		for _, spec := range []sim.RFSpec{sim.Mono1Cycle(u, u), sim.PaperCache()} {
			jobs = append(jobs, sweep.Job{Profile: prof, Config: sim.DefaultConfig(spec, benchInstructions)})
		}
	}
	b.ReportAllocs()
	var stats sweep.CacheStats
	for i := 0; i < b.N; i++ {
		r := sweep.NewRunner(sweep.RunnerConfig{})
		r.RunOutcomes(jobs, 0)
		r.RunOutcomes(jobs, 0)
		stats = r.CacheStats()
	}
	if stats.Hits != uint64(len(jobs)) || stats.Misses != uint64(len(jobs)) {
		b.Fatalf("cache stats = %+v, want %d hits / %d misses", stats, len(jobs), len(jobs))
	}
	recordCache(stats)
	sec := b.Elapsed().Seconds()
	simulated := float64(benchInstructions) * float64(len(jobs)) * float64(b.N)
	ips := simulated / sec
	b.ReportMetric(ips, "instrs/s")
	recordBench("SweepRunner", ips, sec/float64(b.N))
}

func benchOpts() experiments.Options {
	return experiments.Options{Instructions: benchInstructions}
}

// BenchmarkTable2 regenerates the paper's Table 2 from the calibrated
// area/access-time model (no simulation; validates the cost model path).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(discard{})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkFig1 regenerates Figure 1 (IPC vs physical register count).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(benchOpts())
		b.ReportMetric(r.IntHM[len(r.IntHM)-1], "int-IPC@256regs")
		b.ReportMetric(r.FPHM[len(r.FPHM)-1], "fp-IPC@256regs")
	}
}

// BenchmarkFig2 regenerates Figure 2 (RF latency and bypass levels).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2(benchOpts())
		b.ReportMetric(r.Archs[0].IntHM/r.Archs[2].IntHM, "int-1c/2c1b")
		b.ReportMetric(r.Archs[0].FPHM/r.Archs[2].FPHM, "fp-1c/2c1b")
	}
}

// BenchmarkFig3 regenerates Figure 3 (live-value distributions).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(benchOpts())
		for n, v := range r.IntValue {
			if v >= 90 {
				b.ReportMetric(float64(n), "int-p90-live-regs")
				break
			}
		}
	}
}

// BenchmarkFig5 regenerates Figure 5 (caching × prefetch policies).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(benchOpts())
		b.ReportMetric(r.Archs[3].IntHM/r.Archs[2].IntHM, "int-nonbypass/ready")
	}
}

// BenchmarkFig6 regenerates Figure 6 (RF cache vs single-bypass banks).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6(benchOpts())
		b.ReportMetric(r.Archs[1].IntHM/r.Archs[0].IntHM, "int-rfc/1cycle")
		b.ReportMetric(r.Archs[1].IntHM/r.Archs[2].IntHM, "int-rfc/2cycle")
	}
}

// BenchmarkFig7 regenerates Figure 7 (RF cache vs full-bypass 2-cycle).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(benchOpts())
		b.ReportMetric(r.Archs[0].IntHM/r.Archs[1].IntHM, "int-rfc/2cycle-full")
	}
}

// BenchmarkFig8 regenerates Figure 8 (area/performance Pareto sweep).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(benchOpts())
		b.ReportMetric(float64(len(r.IntFrontier["rf-cache"])), "rfc-frontier-points")
	}
}

// BenchmarkFig9 regenerates Figure 9 (throughput with cycle time factored
// in) and reports the paper's headline speedups.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(benchOpts())
		b.ReportMetric(r.Best("rf-cache", "int")/r.Best("1-cycle", "int"), "int-speedup-vs-1c")
		b.ReportMetric(r.Best("rf-cache", "fp")/r.Best("1-cycle", "fp"), "fp-speedup-vs-1c")
	}
}

// runIPC is the ablation helper: IPC of one benchmark on one spec.
func runIPC(b *testing.B, spec sim.RFSpec, bench string) float64 {
	b.Helper()
	prof, ok := trace.ByName(bench)
	if !ok {
		b.Fatalf("unknown benchmark %s", bench)
	}
	return sim.New(sim.DefaultConfig(spec, benchInstructions), trace.New(prof)).Run().IPC
}

// BenchmarkAblationUpperSize sweeps the upper-bank capacity (the paper
// fixes 16; experiments.Ablations sweeps it).
func BenchmarkAblationUpperSize(b *testing.B) {
	for _, size := range []int{8, 16, 32} {
		b.Run(map[int]string{8: "08", 16: "16", 32: "32"}[size], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.PaperCacheConfig()
				cfg.UpperSize = size
				b.ReportMetric(runIPC(b, sim.CacheSpec(cfg), "swim"), "IPC-swim")
			}
		})
	}
}

// BenchmarkAblationReplacement compares pseudo-LRU against exact LRU in
// the upper bank.
func BenchmarkAblationReplacement(b *testing.B) {
	for _, pol := range []core.Replacement{core.PseudoLRU, core.TrueLRU} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.PaperCacheConfig()
				cfg.Replacement = pol
				b.ReportMetric(runIPC(b, sim.CacheSpec(cfg), "fpppp"), "IPC-fpppp")
			}
		})
	}
}

// BenchmarkAblationBuses sweeps the number of inter-bank buses at fixed
// ports (Table 2 pairs buses with ports; this isolates the bus effect).
func BenchmarkAblationBuses(b *testing.B) {
	for _, buses := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "1", 2: "2", 4: "4"}[buses], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.PaperCacheConfig()
				cfg.ReadPorts, cfg.UpperWritePorts, cfg.LowerWritePorts = 4, 3, 3
				cfg.Buses = buses
				b.ReportMetric(runIPC(b, sim.CacheSpec(cfg), "gcc"), "IPC-gcc")
			}
		})
	}
}

// BenchmarkAblationCachingPolicy crosses all four caching policies on an
// integer code under limited bandwidth.
func BenchmarkAblationCachingPolicy(b *testing.B) {
	for _, pol := range []core.CachingPolicy{core.CacheNonBypass, core.CacheReady, core.CacheAll, core.CacheNone} {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.PaperCacheConfig()
				cfg.Caching = pol
				cfg.ReadPorts, cfg.UpperWritePorts, cfg.LowerWritePorts, cfg.Buses = 4, 2, 3, 2
				b.ReportMetric(runIPC(b, sim.CacheSpec(cfg), "perl"), "IPC-perl")
			}
		})
	}
}

// BenchmarkAblationOneLevel evaluates the one-level multi-banked extension
// (paper §3/§6 future work) against the two-level cache at matched port
// budgets.
func BenchmarkAblationOneLevel(b *testing.B) {
	b.Run("one-level-2banks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec := sim.OneLevelSpec(core.OneLevelConfig{
				Banks: 2, ReadPortsPerBank: 2, WritePortsPerBank: 2,
			})
			b.ReportMetric(runIPC(b, spec, "m88ksim"), "IPC-m88ksim")
		}
	})
	b.Run("rf-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := core.PaperCacheConfig()
			cfg.ReadPorts, cfg.UpperWritePorts, cfg.LowerWritePorts, cfg.Buses = 4, 2, 2, 2
			b.ReportMetric(runIPC(b, sim.CacheSpec(cfg), "m88ksim"), "IPC-m88ksim")
		}
	})
}

// BenchmarkSimulatorThroughput measures raw simulation speed (instructions
// simulated per wall second), the practical limit on experiment budgets.
func BenchmarkSimulatorThroughput(b *testing.B) {
	prof, _ := trace.ByName("compress")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(sim.PaperCache(), benchInstructions)
		sim.New(cfg, trace.New(prof)).Run()
	}
	b.ReportMetric(float64(benchInstructions)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}
