// Package trace generates the synthetic dynamic instruction streams that
// substitute for the paper's SPEC95 workloads.
//
// Each workload is described by a Profile and realized as a randomly
// generated *static* program — a tree of counted loops whose bodies contain
// ALU/FP/memory instructions, data-dependent forward branches, and loop
// back-edges — which is then *walked* to produce the dynamic stream. This
// two-phase construction matters: because branches, registers, and memory
// references belong to static instructions with fixed PCs, the branch
// predictor, the instruction cache, and the register-dependence structure
// all see realistic, learnable patterns rather than white noise.
//
// Generation and walking are fully deterministic for a given profile, so
// every register file architecture is evaluated on bit-identical
// instruction sequences.
package trace

import (
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/rng"
)

// Profile parameterizes one synthetic workload.
type Profile struct {
	// Name is the benchmark name (SPEC95 proxy).
	Name string
	// FP marks SpecFP95 proxies (affects instruction mix defaults and
	// reporting groups).
	FP bool

	// StaticInstrs is the approximate static code size in instructions;
	// it determines the I-cache footprint (4 bytes per instruction).
	StaticInstrs int
	// MaxLoopDepth bounds loop nesting.
	MaxLoopDepth int
	// BodyMean is the mean loop-body length in items.
	BodyMean int
	// TripMean is the mean loop trip count.
	TripMean int

	// Instruction-mix weights for non-branch instructions (relative).
	WIntALU, WIntMul, WIntDiv, WFPALU, WFPDiv, WLoad, WStore float64

	// BranchEvery inserts roughly one conditional forward branch per this
	// many body items (in addition to loop back-edges).
	BranchEvery int
	// FracRandomBranch is the fraction of forward branches whose outcome
	// is data-dependent (unlearnable); the rest are strongly biased.
	FracRandomBranch float64
	// RandomBias is P(taken) for data-dependent branches.
	RandomBias float64

	// DepDistP is the geometric parameter for source-register selection:
	// larger values pick more recent producers (shorter dependence
	// distances, less ILP).
	DepDistP float64
	// DestPool is the number of distinct destination registers cycled per
	// class (small pools tighten dependence chains).
	DestPool int

	// FracStream is the fraction of static memory instructions with
	// streaming (sequential) access; the rest address randomly within
	// WorkingSet bytes.
	FracStream float64
	// WorkingSet is the data working-set size in bytes (power of two).
	WorkingSet int

	// Seed fixes the generator stream.
	Seed uint64
}

// Validate reports a configuration error, or nil.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("trace: profile has no name")
	case p.StaticInstrs < 8:
		return fmt.Errorf("trace: %s: StaticInstrs %d too small", p.Name, p.StaticInstrs)
	case p.MaxLoopDepth < 1:
		return fmt.Errorf("trace: %s: MaxLoopDepth must be ≥ 1", p.Name)
	case p.BodyMean < 2:
		return fmt.Errorf("trace: %s: BodyMean must be ≥ 2", p.Name)
	case p.TripMean < 2:
		return fmt.Errorf("trace: %s: TripMean must be ≥ 2", p.Name)
	case p.DepDistP <= 0 || p.DepDistP > 1:
		return fmt.Errorf("trace: %s: DepDistP %v out of (0,1]", p.Name, p.DepDistP)
	case p.DestPool < 2:
		return fmt.Errorf("trace: %s: DestPool must be ≥ 2", p.Name)
	case p.WorkingSet <= 0 || p.WorkingSet&(p.WorkingSet-1) != 0:
		return fmt.Errorf("trace: %s: WorkingSet must be a positive power of two", p.Name)
	case p.BranchEvery < 1:
		return fmt.Errorf("trace: %s: BranchEvery must be ≥ 1", p.Name)
	}
	if p.WIntALU+p.WIntMul+p.WIntDiv+p.WFPALU+p.WFPDiv+p.WLoad+p.WStore <= 0 {
		return fmt.Errorf("trace: %s: instruction mix is empty", p.Name)
	}
	return nil
}

// hotRegionBytes and hotRegionFrac parameterize the two-level locality of
// random memory accesses: hotRegionFrac of them fall within a
// hotRegionBytes hot subset of the working set.
const (
	hotRegionBytes = 16 << 10
	hotRegionFrac  = 0.9
	hotRegionBase  = 0x80000
)

// memMode distinguishes streaming from random accesses.
type memMode uint8

const (
	memNone memMode = iota
	memStream
	memRandom
)

// brKind distinguishes branch roles.
type brKind uint8

const (
	brNone brKind = iota
	brLoop        // loop back-edge: taken while iterations remain
	brIf          // forward hammock branch: taken skips the then-part
)

// sInstr is one static instruction.
type sInstr struct {
	pc         uint64
	class      isa.Class
	dest       isa.Reg
	src1, src2 isa.Reg

	kind   brKind
	target uint64
	pTaken float64
	skip   int // brIf: items to skip when taken

	mode   memMode
	base   uint64
	stride uint64
}

// item is one position in a block: a static instruction or a nested loop.
type item struct {
	instr int32 // index into program.instrs, or -1
	loop  *loop
}

type loop struct {
	body     []item
	backedge int32 // index of the back-edge branch
	tripMean int
	headPC   uint64
}

// program is the generated static code.
type program struct {
	instrs []sInstr
	top    *loop // the whole program wrapped in an infinite loop
}

// Generator walks a generated program, producing the dynamic stream.
// It implements isa.Stream.
type Generator struct {
	prof Profile
	prog *program
	r    *rng.PCG

	// walker state
	frames  []frame
	offsets []uint64 // per static mem instruction: current stream offset
	cur     isa.Instr

	emitted uint64
}

type frame struct {
	l         *loop
	pos       int
	remaining int
	atEdge    bool // body finished; back-edge branch is next
}

// progCache memoizes generated static programs by profile. A program is a
// pure function of its Profile, is immutable once built, and is read-only
// during walking, so concurrent Generators can share one copy. Building
// dominates the fixed cost of short simulations (large-footprint profiles
// like gcc spend ~10ms here), and sweeps re-run the same 18 profiles
// hundreds of times, so memoization pays for itself immediately. Profile
// includes Seed, so every new trace seed adds programs (~0.9 MB each);
// the cache keeps at most progCacheCap of them and, when full, drops the
// least recently used. Eviction cannot change a stream: a Generator keeps
// the program it started with, and a rebuilt program is identical.
var (
	progMu    sync.Mutex
	progClock uint64 // ticks on every lookup and insert; orders cachedProg.used
	progCache = map[Profile]*cachedProg{}
)

// progCacheCap bounds progCache: three trace seeds' worth of the 18
// SPEC95 proxies, about 60 MB.
const progCacheCap = 64

type cachedProg struct {
	prog *program
	used uint64 // progClock at the last lookup or insert
}

// buildProgram returns the (possibly cached) static program for prof.
func buildProgram(prof Profile) *program {
	progMu.Lock()
	progClock++
	if c, ok := progCache[prof]; ok {
		c.used = progClock
		progMu.Unlock()
		return c.prog
	}
	progMu.Unlock()
	// Built outside the lock: concurrent builders for the same profile
	// produce identical programs, so a duplicated build is wasted work,
	// never an inconsistency.
	prog := newBuilder(prof).build()
	progMu.Lock()
	defer progMu.Unlock()
	if _, ok := progCache[prof]; !ok && len(progCache) >= progCacheCap {
		var lru Profile
		oldest := progClock + 1
		for p, c := range progCache {
			if c.used < oldest {
				lru, oldest = p, c.used
			}
		}
		delete(progCache, lru)
	}
	progClock++
	progCache[prof] = &cachedProg{prog: prog, used: progClock}
	return prog
}

// New generates the static program for prof and returns a walker over its
// dynamic instruction stream. It panics on invalid profiles (profiles are
// compiled-in experiment definitions, not user input).
func New(prof Profile) *Generator {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	prog := buildProgram(prof)
	g := &Generator{
		prof:    prof,
		prog:    prog,
		r:       rng.New(prof.Seed, 0xD1CE),
		offsets: make([]uint64, len(prog.instrs)),
	}
	g.pushLoop(prog.top)
	return g
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

// StaticSize returns the number of static instructions generated.
func (g *Generator) StaticSize() int { return len(g.prog.instrs) }

// Emitted returns the number of dynamic instructions produced so far.
func (g *Generator) Emitted() uint64 { return g.emitted }

func (g *Generator) pushLoop(l *loop) {
	g.frames = append(g.frames, frame{l: l, remaining: g.drawTrips(l.tripMean)})
}

// drawTrips returns the trip count for one loop entry. Trip counts are
// fixed per static loop — like the compile-time bounds of real loops — so
// a history-based predictor can learn short loops and pays one exit
// misprediction per entry on long ones, matching real codes.
func (g *Generator) drawTrips(mean int) int {
	if mean <= 1 {
		return 1
	}
	return mean
}

// Next implements isa.Stream.
func (g *Generator) Next() *isa.Instr {
	for {
		f := &g.frames[len(g.frames)-1]
		if f.atEdge || f.pos >= len(f.l.body) {
			// Emit the back-edge branch for this iteration.
			f.atEdge = false
			si := &g.prog.instrs[f.l.backedge]
			taken := f.remaining > 1
			g.emit(si, taken)
			if taken {
				f.remaining--
				f.pos = 0
			} else {
				// Loop exits; top-level loop restarts with fresh trips.
				if len(g.frames) == 1 {
					f.remaining = g.drawTrips(f.l.tripMean)
					if f.remaining < 1 {
						f.remaining = 1
					}
					f.pos = 0
					// Top back-edge is always taken in the emitted stream:
					// rewrite the outcome for predictability.
					g.cur.Taken = true
				} else {
					g.frames = g.frames[:len(g.frames)-1]
				}
			}
			return &g.cur
		}
		it := f.l.body[f.pos]
		if it.loop != nil {
			f.pos++
			g.pushLoop(it.loop)
			continue
		}
		si := &g.prog.instrs[it.instr]
		f.pos++
		if si.kind == brIf {
			taken := g.r.Bernoulli(si.pTaken)
			if taken {
				f.pos += si.skip
				if f.pos > len(f.l.body) {
					f.pos = len(f.l.body)
				}
			}
			g.emit(si, taken)
			return &g.cur
		}
		g.emit(si, false)
		return &g.cur
	}
}

// emit fills g.cur from the static instruction, resolving dynamic fields
// (branch outcome, memory address).
func (g *Generator) emit(si *sInstr, taken bool) {
	g.emitted++
	g.cur = isa.Instr{
		PC:    si.pc,
		Class: si.class,
		Dest:  si.dest,
		Src1:  si.src1,
		Src2:  si.src2,
	}
	if si.class == isa.Branch {
		g.cur.Taken = taken
		g.cur.Target = si.target
	}
	if si.mode != memNone {
		idx := int32(si.pc-pcBase) / 4
		switch si.mode {
		case memStream:
			g.cur.Addr = si.base + g.offsets[idx]
			g.offsets[idx] = (g.offsets[idx] + si.stride) & uint64(g.prof.WorkingSet-1)
		case memRandom:
			// Random accesses follow a two-level locality model: most land
			// in a single shared hot region (temporal reuse, like the hot
			// part of a real heap), the rest anywhere in the working set
			// (capacity misses).
			if g.prof.WorkingSet > hotRegionBytes && g.r.Bernoulli(hotRegionFrac) {
				g.cur.Addr = hotRegionBase + uint64(g.r.Intn(hotRegionBytes))&^7
			} else {
				g.cur.Addr = si.base + uint64(g.r.Intn(g.prof.WorkingSet))&^7
			}
		}
	}
}
