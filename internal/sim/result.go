package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// Result holds the measurements of one simulation run.
type Result struct {
	// Instructions is the number of committed instructions.
	Instructions uint64
	// Cycles is the number of simulated cycles.
	Cycles uint64
	// IPC is Instructions / Cycles.
	IPC float64

	// Branches and Mispredicts count fetched conditional branches.
	Branches, Mispredicts uint64

	// ICacheMissRate and DCacheMissRate are per-access miss rates.
	ICacheMissRate, DCacheMissRate float64

	// StoreForwards counts store→load forwards in the LSQ.
	StoreForwards uint64

	// IntFile and FPFile are the register file model statistics.
	IntFile, FPFile core.FileStats

	// DispatchStalls counts cycles with blocked dispatch (window, rename,
	// or LSQ pressure).
	DispatchStalls uint64
	// FUConflicts counts issue attempts rejected by functional unit
	// occupancy.
	FUConflicts uint64
	// BranchStallCycles counts fetch cycles lost to mispredicted
	// branches, from the fetch of the branch through the cycle it
	// resolves in (fetch resumes the cycle after); the quantity the
	// register file latency amplifies.
	BranchStallCycles uint64
	// ICacheStallCycles counts fetch cycles lost to instruction cache
	// misses.
	ICacheStallCycles uint64

	// ValueHist and ReadyHist are the Figure 3 live-value distributions
	// (only populated with Config.ValueStats).
	ValueHist, ReadyHist stats.Histogram
}

// MispredictRate returns mispredictions per branch, or 0.
func (r *Result) MispredictRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Branches)
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("IPC %.3f (%d instructions, %d cycles, %.1f%% branch mispredict, %.1f%% D$ miss)",
		r.IPC, r.Instructions, r.Cycles, 100*r.MispredictRate(), 100*r.DCacheMissRate)
}

func (s *Simulator) result() Result {
	b := &s.base
	rate := func(miss, missBase, acc, accBase uint64) float64 {
		if acc == accBase {
			return 0
		}
		return float64(miss-missBase) / float64(acc-accBase)
	}
	return Result{
		Instructions:      s.committed - b.committed,
		Cycles:            s.cycle - b.cycles,
		IPC:               float64(s.committed-b.committed) / float64(s.cycle-b.cycles),
		Branches:          s.branches - b.branches,
		Mispredicts:       s.mispredicts - b.mispredicts,
		ICacheMissRate:    rate(s.icache.Misses(), b.icacheMiss, s.icache.Accesses(), b.icacheAcc),
		DCacheMissRate:    rate(s.dcache.Misses(), b.dcacheMiss, s.dcache.Accesses(), b.dcacheAcc),
		StoreForwards:     s.ldst.Forwards() - b.forwards,
		IntFile:           s.intFile.Stats().Sub(b.intStats),
		FPFile:            s.fpFile.Stats().Sub(b.fpStats),
		DispatchStalls:    s.dispatchStall - b.dispatchStalls,
		FUConflicts:       s.fuConflicts - b.fuConflicts,
		BranchStallCycles: s.branchStallCyc - b.branchStallCyc,
		ICacheStallCycles: s.icacheStallCyc - b.icacheStallCyc,
		ValueHist:         s.valueHist,
		ReadyHist:         s.readyHist,
	}
}
