package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/lsq"
	"repro/internal/rename"
	"repro/internal/stats"
)

// notScheduled marks a physical register whose producer has not yet issued.
const notScheduled = ^uint64(0)

// eventHorizon bounds how far in the future completion/write-back events
// can be scheduled.
const eventHorizon = 4096

// deadlockLimit aborts runs that stop committing (a model bug, not a
// workload property).
const deadlockLimit = 100000

// srcOp is one renamed source operand.
type srcOp struct {
	phys core.PhysReg
	fp   bool
}

// nodeNone marks an empty consumer-list link, event chain, or producer
// table slot. All scheduler links are int32 indices rather than pointers:
// a node id encodes (ROB slot, source index) as robIdx*2+k, and event
// chains carry ROB slot indices directly. Index links keep the scheduler
// state pointer-free, so the garbage collector neither traces the window
// every cycle nor interposes write barriers on the hot linking paths.
const nodeNone int32 = -1

// consumerNode links one source operand of an in-flight uop into the
// consumer list of the physical register it reads. The nodes are embedded
// in the uop itself (no allocation) and the lists are doubly linked so an
// issuing instruction unlinks in O(1). One list per physical register
// replaces the per-cycle window scans: it is the wakeup list (producer
// issue decrements waiters' pending counts), the prefetch-first-pair
// candidate list, and the ready-caching consumer census. The owner uop and
// source index are recovered from the node id (robIdx = id>>1, k = id&1),
// so the node itself stores only the links.
type consumerNode struct {
	prev, next int32 // node ids; nodeNone terminates
	// gating marks sources that gate issue and whose producer had not yet
	// issued at dispatch: the producer's issue decrements owner.pending.
	gating bool
}

// uop is one in-flight instruction.
type uop struct {
	in   isa.Instr
	seq  uint64
	live bool

	dest   core.PhysReg // -1 if none
	destFP bool
	prev   rename.PhysReg
	destL  isa.Reg

	src  [2]srcOp
	nsrc int
	// issueSrcs is the number of leading sources that gate issue. For
	// stores only the address register does: the address generation may
	// proceed before the data is produced (split store-address/store-data,
	// as in real designs), and in-order commit automatically enforces the
	// data dependence — the data producer is older and must commit first.
	issueSrcs int

	lsqTicket int

	// cluster is the execution cluster for replicated organizations.
	cluster int8

	issued    bool
	completed bool

	issueCycle    uint64
	completeCycle uint64
	wbCycle       uint64

	mispredicted bool
	bypassCaught bool

	// Scheduler state. robIdx is the uop's own slot in the ROB ring (its
	// bit position in the ready mask); pending counts issue-gating sources
	// whose producer has not yet issued; srcNode embeds the consumer-list
	// nodes; nextComp/nextWB chain the uop into the per-cycle completion
	// and write-back event lists.
	robIdx           int32
	pending          int8
	srcNode          [2]consumerNode
	nextComp, nextWB int32 // ROB slot of the next uop in the event chain
	nextReady        int32 // ROB slot chain of the deferred-ready wheel
}

// Simulator runs one workload on one processor configuration.
type Simulator struct {
	cfg    Config
	stream isa.Stream

	intFile, fpFile core.File
	oneLevel        [2]*core.OneLevel   // non-nil for RFOneLevel; [0]=int,[1]=fp
	replicated      [2]*core.Replicated // non-nil for RFReplicated
	rmap            *rename.Map
	pred            *bpred.Gshare
	icache, dcache  *cache.Cache
	ldst            *lsq.Queue

	// ROB ring buffer.
	rob      []uop
	robHead  int
	robCount int

	// readyMask holds one bit per ROB slot: set while the uop is live,
	// unissued, and all of its issue-gating producers have issued. Issue
	// selection scans set bits in ring order from robHead (oldest first)
	// instead of walking every live uop.
	readyMask []uint64

	// Per-physical-register consumer lists (see consumerNode), indexed by
	// file then register; entries are node ids (nodeNone when empty).
	consHead, consTail [2][]int32

	// Fetch queue ring buffer.
	fetchQ []fetchEntry
	fqHead int
	fqLen  int

	// Per-file result-bus cycle and producer tables, indexed by physical
	// register; index 0 = int file, 1 = FP file. Producers are ROB slot
	// indices (nodeNone when never produced); like the old pointer form,
	// an entry may refer to a recycled slot, so readers re-check live.
	regBus      [2][]uint64
	regProducer [2][]int32

	// Per-cycle completion and write-back event lists, chained through the
	// uops themselves (nextComp/nextWB) in FIFO order — no slice churn.
	// Entries are ROB slot indices; nodeNone means empty.
	compHead, compTail [eventHorizon]int32
	wbHead, wbTail     [eventHorizon]int32

	// readyEv defers ready-mask entry to the cycle a uop's operands first
	// become catchable (see scheduleReady): a consumer of a long-latency
	// producer would otherwise sit in the mask failing tryReadOperands —
	// side-effect-free by the register file models' early not-yet-catchable
	// exit — every cycle until the value approaches the bypass window.
	readyEv [eventHorizon]int32

	fu fuPools

	// readLat caches the files' constant operand-read latencies
	// ([0]=int, [1]=fp), avoiding an interface call per issued uop.
	readLat [2]uint64

	// catchDelta is how many cycles before an operand's result-bus cycle
	// an issue attempt can first succeed, per file: the not-yet-catchable
	// threshold of the file's TryRead (minIssueDelta for monolithic files,
	// the two-level bypass window of 2 for the banked organizations).
	catchDelta [2]uint64

	cycle     uint64
	seq       uint64
	committed uint64

	fetchResumeAt uint64
	blockedBranch bool
	// redirecting marks that fetchResumeAt was set by a mispredicted
	// branch's resolution rather than an I-cache miss, so the cycle fetch
	// waits for the redirect counts as a branch stall.
	redirecting bool
	// pendingValid marks that the next instruction has already been pulled
	// from the stream and sits in the fetch-queue slot the next push will
	// occupy (it stalled on an I-cache miss or a full queue).
	pendingValid bool

	// Operand scratch buffers, indexed by file: at most two sources per
	// instruction, so fixed arrays (no heap growth).
	ops  [2][2]core.Operand
	nOps [2]int

	// Value-stats scratch bitmaps (Figure 3 instrumentation only).
	vsVal, vsReady [2][]uint64

	// instrumentation
	mispredicts    uint64
	branches       uint64
	valueHist      stats.Histogram
	readyHist      stats.Histogram
	dispatchStall  uint64
	fuConflicts    uint64
	branchStallCyc uint64
	icacheStallCyc uint64
	lastCommitAt   uint64

	warmed bool
	base   snapshot

	tracer Tracer
}

// snapshot records statistics at the warmup boundary; results report the
// deltas from it.
type snapshot struct {
	cycles, committed     uint64
	branches, mispredicts uint64
	icacheAcc, icacheMiss uint64
	dcacheAcc, dcacheMiss uint64
	forwards              uint64
	dispatchStalls        uint64
	fuConflicts           uint64
	branchStallCyc        uint64
	icacheStallCyc        uint64
	intStats, fpStats     core.FileStats
}

type fetchEntry struct {
	in           isa.Instr
	mispredicted bool
}

// fuPool tracks one functional-unit class: each unit accepts one
// instruction per cycle (pipelined); divides occupy their unit for the full
// latency. earliestFree caches min(busyUntil) so the common "all units
// busy" case is a single comparison instead of a pool scan.
//
// Pools whose every instruction occupies its unit for a single cycle
// (pipelined = true) degenerate to a per-cycle grant counter: a unit taken
// at t is free again at t+1, so availability at t depends only on how many
// grants cycle t has already made. The counter path and the busyUntil scan
// accept and reject identically; the counter just skips the bookkeeping.
type fuPool struct {
	busyUntil    []uint64
	earliestFree uint64

	pipelined bool
	lastGrant uint64
	granted   int
}

// take acquires a unit at cycle t, occupying it for occupy cycles, and
// reports whether one was free.
func (p *fuPool) take(t, occupy uint64) bool {
	if p.pipelined {
		if p.lastGrant != t {
			p.lastGrant = t
			p.granted = 0
		}
		if p.granted == len(p.busyUntil) {
			return false
		}
		p.granted++
		return true
	}
	if p.earliestFree > t {
		return false // all busy: O(1) fast path
	}
	for i, busy := range p.busyUntil {
		if busy <= t {
			p.busyUntil[i] = t + occupy
			m := p.busyUntil[0]
			for _, b := range p.busyUntil[1:] {
				if b < m {
					m = b
				}
			}
			p.earliestFree = m
			return true
		}
	}
	panic("sim: fuPool earliestFree out of sync with pool state")
}

// fuPools holds the functional unit pools of Table 1, plus a class-indexed
// dispatch table (pool and occupancy per class) so the per-issue lookup is
// two array loads instead of a switch.
type fuPools struct {
	simpleInt fuPool
	intMulDiv fuPool
	simpleFP  fuPool
	fpDiv     fuPool
	mem       fuPool

	byClass [isa.NumClasses]*fuPool
	occupy  [isa.NumClasses]uint64
}

func newFUPools(c *Config) fuPools {
	f := fuPools{
		// simpleInt, simpleFP and mem serve only occupy-1 classes, so they
		// use the per-cycle counter path; the divide pools track real
		// multi-cycle occupancy.
		simpleInt: fuPool{busyUntil: make([]uint64, c.SimpleInt), pipelined: true},
		intMulDiv: fuPool{busyUntil: make([]uint64, c.IntMulDiv)},
		simpleFP:  fuPool{busyUntil: make([]uint64, c.SimpleFP), pipelined: true},
		fpDiv:     fuPool{busyUntil: make([]uint64, c.FPDiv)},
		mem:       fuPool{busyUntil: make([]uint64, c.MemPorts), pipelined: true},
	}
	for cls := isa.Class(0); cls < isa.NumClasses; cls++ {
		f.byClass[cls] = f.poolFor(cls)
		// Divides block their unit for the full latency; every other class
		// is fully pipelined and occupies its unit for a single cycle.
		f.occupy[cls] = 1
		if cls == isa.IntDiv || cls == isa.FPDiv {
			f.occupy[cls] = uint64(isa.Latency(cls))
		}
	}
	return f
}

func (f *fuPools) poolFor(c isa.Class) *fuPool {
	switch c {
	case isa.IntALU, isa.Branch:
		return &f.simpleInt
	case isa.IntMul, isa.IntDiv:
		return &f.intMulDiv
	case isa.FPALU:
		return &f.simpleFP
	case isa.FPDiv:
		return &f.fpDiv
	case isa.Load, isa.Store:
		return &f.mem
	}
	panic(fmt.Sprintf("sim: no functional unit pool for %v", c))
}

// take acquires a unit at cycle t for an instruction of class c, returning
// false if all units are busy.
func (f *fuPools) take(c isa.Class, t uint64) bool {
	return f.byClass[c].take(t, f.occupy[c])
}

// New builds a simulator for the given configuration and instruction
// stream. It panics on invalid configurations (experiment definitions are
// code, not user input).
func New(cfg Config, stream isa.Stream) *Simulator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Simulator{
		cfg:       cfg,
		stream:    stream,
		intFile:   cfg.buildFile(),
		fpFile:    cfg.buildFile(),
		rmap:      rename.NewMap(cfg.PhysRegs, cfg.PhysRegs),
		icache:    cache.New(cfg.ICache),
		dcache:    cache.New(cfg.DCache),
		ldst:      lsq.New(cfg.LSQSize),
		rob:       make([]uop, cfg.WindowSize),
		readyMask: make([]uint64, (cfg.WindowSize+63)/64),
		fetchQ:    make([]fetchEntry, cfg.FetchQueue),
		fu:        newFUPools(&cfg),
		pred:      bpred.NewGshareHist(cfg.PredictorBits, cfg.HistoryBits),
	}
	if cfg.RF.Kind == RFOneLevel {
		s.oneLevel[0] = s.intFile.(*core.OneLevel)
		s.oneLevel[1] = s.fpFile.(*core.OneLevel)
	}
	if cfg.RF.Kind == RFReplicated {
		s.replicated[0] = s.intFile.(*core.Replicated)
		s.replicated[1] = s.fpFile.(*core.Replicated)
	}
	s.readLat[0] = uint64(s.intFile.ReadLatency())
	s.readLat[1] = uint64(s.fpFile.ReadLatency())
	for f := 0; f < 2; f++ {
		// The not-yet-catchable threshold of each file's TryRead: issue
		// attempts at t < bus−catchDelta fail without side effects. Both
		// files share the RF spec, so the deltas coincide today, but they
		// are kept per-file like readLat.
		s.catchDelta[f] = 2
		if cfg.RF.Kind == RFMonolithic && cfg.RF.Mono.FullBypass {
			s.catchDelta[f] = uint64(cfg.RF.Mono.Latency) + 1
		}
	}
	for f := 0; f < 2; f++ {
		s.regBus[f] = make([]uint64, cfg.PhysRegs)
		s.regProducer[f] = make([]int32, cfg.PhysRegs)
		s.consHead[f] = make([]int32, cfg.PhysRegs)
		s.consTail[f] = make([]int32, cfg.PhysRegs)
		for p := 0; p < cfg.PhysRegs; p++ {
			// Architectural registers hold committed values from the start;
			// free-list registers get a bus cycle when renamed.
			s.regBus[f][p] = 0
			s.regProducer[f][p] = nodeNone
			s.consHead[f][p] = nodeNone
			s.consTail[f][p] = nodeNone
		}
	}
	for i := range s.compHead {
		s.compHead[i], s.compTail[i] = nodeNone, nodeNone
		s.wbHead[i], s.wbTail[i] = nodeNone, nodeNone
		s.readyEv[i] = nodeNone
	}
	if cfg.ValueStats {
		words := (cfg.PhysRegs + 63) / 64
		for f := 0; f < 2; f++ {
			s.vsVal[f] = make([]uint64, words)
			s.vsReady[f] = make([]uint64, words)
		}
	}
	return s
}

func (s *Simulator) fileFor(fp bool) core.File {
	if fp {
		return s.fpFile
	}
	return s.intFile
}

func fileIdx(fp bool) int {
	if fp {
		return 1
	}
	return 0
}

// node resolves a consumer-list node id to its embedded node.
func (s *Simulator) node(id int32) *consumerNode {
	return &s.rob[id>>1].srcNode[id&1]
}

// nodeOwner resolves a node id to the uop owning the source operand.
func (s *Simulator) nodeOwner(id int32) *uop { return &s.rob[id>>1] }

// robWrap reduces a ROB ring index in [0, 2*len(rob)) into range. The ring
// steps by at most one capacity, so a compare replaces the modulo (whose
// hardware divide otherwise shows up in every commit/dispatch step).
func (s *Simulator) robWrap(i int) int {
	if n := len(s.rob); i >= n {
		i -= n
	}
	return i
}

// fqWrap is robWrap for the fetch queue ring.
func (s *Simulator) fqWrap(i int) int {
	if n := len(s.fetchQ); i >= n {
		i -= n
	}
	return i
}

// setReady marks u selectable for issue.
func (s *Simulator) setReady(u *uop) {
	s.readyMask[u.robIdx>>6] |= 1 << uint(u.robIdx&63)
}

// clearReady removes u from the issue candidates.
func (s *Simulator) clearReady(u *uop) {
	s.readyMask[u.robIdx>>6] &^= 1 << uint(u.robIdx&63)
}

// scheduleReady makes u an issue candidate — immediately when its operands
// are already catchable at cycle t, otherwise at the first cycle an issue
// attempt can get past the register file's not-yet-catchable check. Until
// that cycle every attempt would fail in the gate file (the first file
// TryRead consults: integer if any issue-gating source is integer, FP
// otherwise) before consuming ports or counting conflicts, so deferring
// the mask entry is invisible to results — it only skips attempts that do
// nothing.
func (s *Simulator) scheduleReady(u *uop, t uint64) {
	hold := s.readyHold(u)
	if hold <= t {
		s.setReady(u)
		return
	}
	if hold-t >= eventHorizon {
		panic("sim: ready event beyond event horizon")
	}
	slot := hold % eventHorizon
	u.nextReady = s.readyEv[slot]
	s.readyEv[slot] = u.robIdx
}

// readyHold returns the first cycle at which an issue attempt for u can
// get past the gate file's not-yet-catchable check (0 when its operands
// are already catchable). The hold is fixed once every issue-gating
// producer has issued: the operands' result-bus cycles no longer change.
func (s *Simulator) readyHold(u *uop) uint64 {
	var hold uint64
	if u.issueSrcs == 0 {
		return 0
	}
	gate := 1
	for k := 0; k < u.issueSrcs; k++ {
		if !u.src[k].fp {
			gate = 0
			break
		}
	}
	d := s.catchDelta[gate]
	for k := 0; k < u.issueSrcs; k++ {
		if fileIdx(u.src[k].fp) != gate {
			continue
		}
		w := s.regBus[gate][u.src[k].phys]
		if s.replicated[0] != nil {
			w = s.replicated[gate].BusCycleAt(u.src[k].phys, w, int(u.cluster))
		}
		if w > d && w-d > hold {
			hold = w - d
		}
	}
	return hold
}

// processReadyEvents moves uops whose operands become catchable at cycle t
// into the ready mask, before the issue stage scans it.
func (s *Simulator) processReadyEvents(t uint64) {
	slot := t % eventHorizon
	for id := s.readyEv[slot]; id != nodeNone; {
		u := &s.rob[id]
		id = u.nextReady
		u.nextReady = nodeNone
		s.setReady(u)
	}
	s.readyEv[slot] = nodeNone
}

// Run simulates until MaxInstructions commit and returns the results.
func (s *Simulator) Run() Result {
	for s.committed < s.cfg.MaxInstructions {
		s.step()
	}
	return s.result()
}

// step advances the simulation by one cycle.
func (s *Simulator) step() {
	t := s.cycle
	s.intFile.BeginCycle(t)
	s.fpFile.BeginCycle(t)
	s.processCompletions(t)
	s.processWritebacks(t)
	s.commit(t)
	s.processReadyEvents(t)
	s.issue(t)
	s.dispatch(t)
	s.fetch(t)
	if s.cfg.ValueStats && s.warmed {
		s.recordValueStats(t)
	}
	if !s.warmed && s.committed >= s.cfg.WarmupInstructions {
		s.warmed = true
		s.base = snapshot{
			cycles: s.cycle + 1, committed: s.committed,
			branches: s.branches, mispredicts: s.mispredicts,
			icacheAcc: s.icache.Accesses(), icacheMiss: s.icache.Misses(),
			dcacheAcc: s.dcache.Accesses(), dcacheMiss: s.dcache.Misses(),
			forwards:       s.ldst.Forwards(),
			dispatchStalls: s.dispatchStall,
			fuConflicts:    s.fuConflicts,
			branchStallCyc: s.branchStallCyc,
			icacheStallCyc: s.icacheStallCyc,
			intStats:       s.intFile.Stats(), fpStats: s.fpFile.Stats(),
		}
	}
	s.cycle++
	if t-s.lastCommitAt > deadlockLimit {
		panic(fmt.Sprintf("sim: no commit for %d cycles at cycle %d (%s)\n%s",
			deadlockLimit, t, s.cfg.RF.Name, s.describeHead(t)))
	}
}

// describeHead reports why the window head cannot retire — the forensic
// payload of the deadlock panic.
func (s *Simulator) describeHead(t uint64) string {
	if s.robCount == 0 {
		return fmt.Sprintf("empty window; fetchResumeAt=%d blockedBranch=%v fetchQ=%d",
			s.fetchResumeAt, s.blockedBranch, s.fqLen)
	}
	u := &s.rob[s.robHead]
	desc := fmt.Sprintf("head seq=%d %v issued=%v completed=%v wb=%d complete=%d pending=%d",
		u.seq, u.in.Class, u.issued, u.completed, u.wbCycle, u.completeCycle, u.pending)
	for k := 0; k < u.nsrc; k++ {
		fi := fileIdx(u.src[k].fp)
		w := s.regBus[fi][u.src[k].phys]
		desc += fmt.Sprintf("\n  src%d p%d fp=%v bus=%d", k, u.src[k].phys, u.src[k].fp, w)
		if cf, ok := s.fileFor(u.src[k].fp).(*core.CacheFile); ok {
			desc += " " + cf.Describe(u.src[k].phys)
		}
	}
	if u.in.Class == isa.Load {
		desc += fmt.Sprintf("\n  canIssueLoad=%v", s.ldst.CanIssueLoad(u.lsqTicket))
	}
	return desc
}

// processCompletions handles instructions finishing execution at cycle t:
// branch resolution (fetch redirect) and store address availability.
func (s *Simulator) processCompletions(t uint64) {
	slot := t % eventHorizon
	for id := s.compHead[slot]; id != nodeNone; {
		u := &s.rob[id]
		id = u.nextComp
		u.nextComp = nodeNone
		u.completed = true
		u.completeCycle = t
		if s.tracer != nil {
			s.trace(t, "complete", "%s", traceUop(u))
		}
		switch u.in.Class {
		case isa.Branch:
			if u.mispredicted {
				s.blockedBranch = false
				if s.fetchResumeAt < t+1 {
					s.fetchResumeAt = t + 1
					s.redirecting = true
				}
			}
		case isa.Store:
			s.ldst.SetAddress(u.lsqTicket, u.in.Addr)
			s.ldst.IssueStore(u.lsqTicket)
		}
	}
	s.compHead[slot], s.compTail[slot] = nodeNone, nodeNone
}

// processWritebacks delivers results to the register files at their
// reserved write-back cycles, computing the caching-policy hints.
func (s *Simulator) processWritebacks(t uint64) {
	slot := t % eventHorizon
	for id := s.wbHead[slot]; id != nodeNone; {
		u := &s.rob[id]
		id = u.nextWB
		u.nextWB = nodeNone
		file := s.fileFor(u.destFP)
		if s.tracer != nil {
			s.trace(t, "writeback", "%s bypassCaught=%v", traceUop(u), u.bypassCaught)
		}
		hints := core.WBHints{BypassCaught: u.bypassCaught}
		if s.cfg.RF.Kind == RFCache {
			hints.ReadyConsumer = s.hasReadyConsumer(u, t)
		}
		file.Writeback(t, u.dest, hints)
	}
	s.wbHead[slot], s.wbTail[slot] = nodeNone, nodeNone
}

// hasReadyConsumer reports whether some not-yet-issued window instruction
// sources u's result and has all of its operands produced by cycle t (the
// "ready caching" predicate). The consumer list of u.dest holds exactly
// the unissued window instructions that source it (issued consumers are
// unlinked), so only actual consumers are inspected.
func (s *Simulator) hasReadyConsumer(u *uop, t uint64) bool {
	fi := fileIdx(u.destFP)
	for id := s.consHead[fi][u.dest]; id != nodeNone; id = s.node(id).next {
		c := s.nodeOwner(id)
		allReady := true
		for k := 0; k < c.nsrc; k++ {
			w := s.regBus[fileIdx(c.src[k].fp)][c.src[k].phys]
			if w == notScheduled || w > t {
				allReady = false
				break
			}
		}
		if allReady {
			return true
		}
	}
	return false
}

// commit retires completed instructions in order, releasing the previous
// physical registers of their logical destinations. Only the window head
// is ever inspected: retirement needs no scan of the live window.
func (s *Simulator) commit(t uint64) {
	for n := 0; n < s.cfg.CommitWidth && s.robCount > 0; n++ {
		u := &s.rob[s.robHead]
		if !u.completed {
			return
		}
		if u.dest >= 0 {
			if t < u.wbCycle {
				return
			}
		} else if t <= u.completeCycle {
			return
		}
		if u.in.Class.IsMem() {
			s.ldst.Commit(u.seq, s.dcache, t)
		}
		if u.dest >= 0 && u.prev != rename.PhysNone {
			s.rmap.Release(u.destL, u.prev)
			s.fileFor(u.destFP).Release(core.PhysReg(u.prev))
		}
		if s.tracer != nil {
			s.trace(t, "commit", "%s", traceUop(u))
		}
		u.live = false
		s.robHead = s.robWrap(s.robHead + 1)
		s.robCount--
		s.committed++
		s.lastCommitAt = t
	}
}

// issue selects up to IssueWidth ready instructions, oldest first, subject
// to functional unit, load disambiguation, and register file constraints.
// Candidates come from the ready mask; instructions woken by a producer
// issuing earlier in the same pass occupy later ring positions and are
// picked up by the same scan, preserving the oldest-first single-pass
// semantics of a full window walk.
func (s *Simulator) issue(t uint64) {
	if s.robCount == 0 {
		return
	}
	left := s.cfg.IssueWidth
	end := s.robHead + s.robCount
	if n := len(s.rob); end <= n {
		s.issueScan(t, s.robHead, end, &left)
	} else {
		if s.issueScan(t, s.robHead, n, &left) {
			return
		}
		s.issueScan(t, 0, end-n, &left)
	}
}

// issueScan attempts to issue ready instructions with ROB indices in
// [lo, hi), in index order; it returns true once the issue width is
// exhausted. The mask word is re-read on every step so wakeups performed
// by instructions issued earlier in the scan are visible.
func (s *Simulator) issueScan(t uint64, lo, hi int, left *int) bool {
	for i := lo; i < hi; {
		w := s.readyMask[i>>6] >> uint(i&63)
		if w == 0 {
			i = (i | 63) + 1
			continue
		}
		i += bits.TrailingZeros64(w)
		if i >= hi {
			return false
		}
		u := &s.rob[i]
		i++
		if u.in.Class == isa.Load && !s.ldst.CanIssueLoad(u.lsqTicket) {
			continue
		}
		if !s.tryReadOperands(u, t) {
			continue
		}
		if !s.fu.take(u.in.Class, t) {
			s.fuConflicts++
			continue
		}
		s.doIssue(u, t)
		(*left)--
		if *left == 0 {
			return true
		}
	}
	return false
}

// tryReadOperands secures register file access for u's sources, split
// across the integer and FP files. If the integer part succeeds but the FP
// part fails, the consumed integer ports stay consumed this cycle — the
// hardware analogue is a speculative read that is discarded.
func (s *Simulator) tryReadOperands(u *uop, t uint64) bool {
	s.nOps[0], s.nOps[1] = 0, 0
	for k := 0; k < u.issueSrcs; k++ {
		fi := fileIdx(u.src[k].fp)
		s.ops[fi][s.nOps[fi]] = core.Operand{Reg: u.src[k].phys, Bus: s.regBus[fi][u.src[k].phys]}
		s.nOps[fi]++
	}
	opsInt := s.ops[0][:s.nOps[0]]
	opsFP := s.ops[1][:s.nOps[1]]
	if s.replicated[0] != nil {
		if len(opsInt) > 0 && !s.replicated[0].TryReadCluster(t, opsInt, int(u.cluster)) {
			return false
		}
		if len(opsFP) > 0 && !s.replicated[1].TryReadCluster(t, opsFP, int(u.cluster)) {
			return false
		}
	} else {
		if len(opsInt) > 0 && !s.intFile.TryRead(t, opsInt, true) {
			return false
		}
		if len(opsFP) > 0 && !s.fpFile.TryRead(t, opsFP, true) {
			return false
		}
	}
	// Mark producers whose results were captured from the bypass network.
	for j := range opsInt {
		if opsInt[j].ViaBypass {
			if pi := s.regProducer[0][opsInt[j].Reg]; pi != nodeNone && s.rob[pi].live {
				s.rob[pi].bypassCaught = true
			}
		}
	}
	for j := range opsFP {
		if opsFP[j].ViaBypass {
			if pi := s.regProducer[1][opsFP[j].Reg]; pi != nodeNone && s.rob[pi].live {
				s.rob[pi].bypassCaught = true
			}
		}
	}
	return true
}

// readLatency returns the operand-read pipeline depth for u. The per-file
// latencies are constants cached at construction (readLat), so this is
// pure arithmetic — no interface dispatch on the issue path.
func (s *Simulator) readLatency(u *uop) uint64 {
	var l uint64
	for k := 0; k < u.nsrc; k++ {
		if fl := s.readLat[fileIdx(u.src[k].fp)]; fl > l {
			l = fl
		}
	}
	if l == 0 { // no register sources: dest file's latency gates the stage
		l = s.readLat[fileIdx(u.destFP)]
	}
	return l
}

// unlinkConsumers removes u's source nodes from their consumer lists; the
// lists then hold only unissued consumers.
func (s *Simulator) unlinkConsumers(u *uop) {
	for k := 0; k < u.nsrc; k++ {
		n := &u.srcNode[k]
		fi := fileIdx(u.src[k].fp)
		p := u.src[k].phys
		if n.prev != nodeNone {
			s.node(n.prev).next = n.next
		} else {
			s.consHead[fi][p] = n.next
		}
		if n.next != nodeNone {
			s.node(n.next).prev = n.prev
		} else {
			s.consTail[fi][p] = n.prev
		}
		n.prev, n.next = nodeNone, nodeNone
	}
}

// wakeConsumers notifies the waiters of physical register p (file fi) that
// its producer has issued and scheduled a result-bus cycle. Waiters whose
// last gating producer this was become issue candidates.
func (s *Simulator) wakeConsumers(fi int, p core.PhysReg, t uint64) {
	for id := s.consHead[fi][p]; id != nodeNone; {
		n := s.node(id)
		owner := id >> 1
		id = n.next
		if !n.gating {
			continue
		}
		n.gating = false
		c := &s.rob[owner]
		if c.pending--; c.pending == 0 {
			s.scheduleReady(c, t)
		}
	}
}

// doIssue finalizes the issue of u at cycle t: schedules completion and
// write-back, wakes dependents, and triggers prefetch-first-pair.
func (s *Simulator) doIssue(u *uop, t uint64) {
	u.issued = true
	u.issueCycle = t
	s.clearReady(u)
	s.unlinkConsumers(u)
	l := s.readLatency(u)
	var c uint64
	switch u.in.Class {
	case isa.Load:
		res := s.ldst.IssueLoad(u.lsqTicket, s.dcache, t+l+1)
		c = t + l + uint64(res.Latency)
	case isa.Store:
		c = t + l + 1
	default:
		c = t + l + uint64(isa.Latency(u.in.Class))
	}
	u.completeCycle = c
	if s.tracer != nil {
		s.trace(t, "issue", "%s L=%d complete@%d", traceUop(u), l, c)
	}
	if c-t >= eventHorizon {
		panic("sim: completion beyond event horizon")
	}
	cs := c % eventHorizon
	u.nextComp = nodeNone
	if s.compTail[cs] != nodeNone {
		s.rob[s.compTail[cs]].nextComp = u.robIdx
	} else {
		s.compHead[cs] = u.robIdx
	}
	s.compTail[cs] = u.robIdx

	if u.dest >= 0 {
		var w uint64
		switch s.cfg.RF.Kind {
		case RFOneLevel:
			w = s.oneLevel[fileIdx(u.destFP)].ReserveWritebackBank(u.dest, c+1)
		case RFReplicated:
			w = s.replicated[fileIdx(u.destFP)].ReserveWritebackAll(u.dest, c+1)
		default:
			w = s.fileFor(u.destFP).ReserveWriteback(c + 1)
		}
		u.wbCycle = w
		fi := fileIdx(u.destFP)
		s.regBus[fi][u.dest] = w
		s.wakeConsumers(fi, u.dest, t)
		if w-t >= eventHorizon {
			panic("sim: write-back beyond event horizon")
		}
		ws := w % eventHorizon
		u.nextWB = nodeNone
		if s.wbTail[ws] != nodeNone {
			s.rob[s.wbTail[ws]].nextWB = u.robIdx
		} else {
			s.wbHead[ws] = u.robIdx
		}
		s.wbTail[ws] = u.robIdx
		if s.cfg.RF.Kind == RFCache {
			s.prefetchFirstPair(u, t)
		}
	}
}

// prefetchFirstPair implements the paper's prefetching scheme: when u
// issues, find the first in-window instruction that consumes u's result and
// prefetch its *other* source operand into the upper bank. The head of
// u.dest's consumer list is that first consumer — the list is kept in
// dispatch (sequence) order and issued consumers are unlinked.
func (s *Simulator) prefetchFirstPair(u *uop, t uint64) {
	fi := fileIdx(u.destFP)
	id := s.consHead[fi][u.dest]
	if id == nodeNone {
		return
	}
	c := s.nodeOwner(id)
	uses := int(id & 1)
	// Prefetch the other operand, if any.
	for k := 0; k < c.nsrc; k++ {
		if k == uses {
			continue
		}
		ofi := fileIdx(c.src[k].fp)
		w := s.regBus[ofi][c.src[k].phys]
		if w != notScheduled {
			s.fileFor(c.src[k].fp).NotePrefetch(t, c.src[k].phys, w)
		}
	}
}

// dispatch renames and inserts fetched instructions into the window,
// registering each source on its physical register's consumer list and
// counting the issue-gating producers still outstanding.
func (s *Simulator) dispatch(t uint64) {
	for n := 0; n < s.cfg.FetchWidth && s.fqLen > 0; n++ {
		fe := &s.fetchQ[s.fqHead]
		if s.robCount == len(s.rob) {
			s.dispatchStall++
			return
		}
		in := &fe.in
		if in.HasDest() && !s.rmap.CanRename(in.Dest) {
			s.dispatchStall++
			return
		}
		if in.Class.IsMem() && s.ldst.Full() {
			s.dispatchStall++
			return
		}

		s.seq++
		idx := s.robWrap(s.robHead + s.robCount)
		u := &s.rob[idx]
		*u = uop{in: *in, seq: s.seq, live: true, dest: -1, lsqTicket: -1,
			mispredicted: fe.mispredicted, robIdx: int32(idx)}
		if s.replicated[0] != nil {
			u.cluster = int8(s.seq % uint64(s.replicated[0].Clusters()))
		}

		// Sources: read the current mappings.
		u.nsrc = 0
		for _, r := range [2]isa.Reg{in.Src1, in.Src2} {
			if !r.Valid() {
				continue
			}
			p, fp := s.rmap.Lookup(r)
			u.src[u.nsrc] = srcOp{phys: core.PhysReg(p), fp: fp}
			u.nsrc++
		}
		u.issueSrcs = u.nsrc
		if in.Class == isa.Store && u.nsrc > 1 {
			u.issueSrcs = 1 // address only; see the issueSrcs field comment
		}
		// Destination: allocate a new physical register.
		if in.HasDest() {
			newP, prevP := s.rmap.Rename(in.Dest)
			u.dest = core.PhysReg(newP)
			u.destFP = in.Dest.IsFP()
			u.prev = prevP
			u.destL = in.Dest
			fi := fileIdx(u.destFP)
			s.regBus[fi][u.dest] = notScheduled
			s.regProducer[fi][u.dest] = u.robIdx
			if s.cfg.RF.Kind == RFOneLevel {
				s.oneLevel[fi].AssignBank(u.dest)
			}
			if s.cfg.RF.Kind == RFReplicated {
				s.replicated[fi].SetHome(u.dest, int(u.cluster))
			}
		}
		if in.Class.IsMem() {
			u.lsqTicket = s.ldst.Insert(u.seq, lsqKind(in.Class))
			if in.Class == isa.Load {
				s.ldst.SetAddress(u.lsqTicket, in.Addr)
			}
		}
		// Consumer-list registration and wakeup accounting. Appending at
		// dispatch keeps every list in sequence order.
		for k := 0; k < u.nsrc; k++ {
			fi := fileIdx(u.src[k].fp)
			p := u.src[k].phys
			nid := u.robIdx<<1 | int32(k)
			node := &u.srcNode[k]
			node.gating = k < u.issueSrcs && s.regBus[fi][p] == notScheduled
			if node.gating {
				u.pending++
			}
			node.next = nodeNone
			node.prev = s.consTail[fi][p]
			if node.prev != nodeNone {
				s.node(node.prev).next = nid
			} else {
				s.consHead[fi][p] = nid
			}
			s.consTail[fi][p] = nid
		}
		if u.pending == 0 {
			s.scheduleReady(u, t)
		}
		s.robCount++
		s.fqHead = s.fqWrap(s.fqHead + 1)
		s.fqLen--
		if s.tracer != nil {
			s.trace(t, "dispatch", "%s", traceUop(u))
		}
	}
}

func lsqKind(c isa.Class) lsq.Kind {
	if c == isa.Load {
		return lsq.KindLoad
	}
	return lsq.KindStore
}

// fetch brings up to FetchWidth instructions into the fetch queue, stopping
// at taken branches, I-cache misses, and mispredicted branches (which stall
// fetch until resolution).
func (s *Simulator) fetch(t uint64) {
	if s.blockedBranch {
		s.branchStallCyc++
		return
	}
	if t < s.fetchResumeAt {
		if s.redirecting {
			s.branchStallCyc++
		} else {
			s.icacheStallCyc++
		}
		return
	}
	for n := 0; n < s.cfg.FetchWidth && s.fqLen < len(s.fetchQ); n++ {
		// The pending instruction is materialized directly in the slot it
		// will occupy once fetched: the push index fqWrap(fqHead+fqLen) is
		// invariant under dispatch pops (head+1, len-1 preserve the sum), so
		// the slot stays stable across I-cache stall cycles and no separate
		// pending buffer — and its extra copy — is needed.
		fe := &s.fetchQ[s.fqWrap(s.fqHead+s.fqLen)]
		if !s.pendingValid {
			fe.in = *s.stream.Next()
			fe.mispredicted = false
			s.pendingValid = true
		}
		in := &fe.in
		if n == 0 {
			res := s.icache.Access(in.PC, false, t)
			if !res.Hit {
				s.fetchResumeAt = t + uint64(res.Latency) - 1
				s.redirecting = false
				return
			}
		}
		s.pendingValid = false
		if in.Class == isa.Branch {
			s.branches++
			if !s.pred.Update(in.PC, in.Taken) {
				s.mispredicts++
				fe.mispredicted = true
				s.blockedBranch = true
				s.fqLen++
				return
			}
			s.fqLen++
			if in.Taken {
				return // at most one taken branch per fetch cycle
			}
			continue
		}
		s.fqLen++
	}
}

// recordValueStats implements the Figure 3 instrumentation: per cycle,
// count distinct physical registers that hold a produced value and are
// source operands of (a) any unissued window instruction, and (b) an
// unissued instruction whose operands are all produced. The distinct-set
// bookkeeping uses preallocated bitmaps.
func (s *Simulator) recordValueStats(t uint64) {
	for f := 0; f < 2; f++ {
		clear(s.vsVal[f])
		clear(s.vsReady[f])
	}
	nVal, nReady := 0, 0
	for i, n := s.robHead, 0; n < s.robCount; i, n = s.robWrap(i+1), n+1 {
		u := &s.rob[i]
		if !u.live || u.issued {
			continue
		}
		allReady := true
		for k := 0; k < u.nsrc; k++ {
			w := s.regBus[fileIdx(u.src[k].fp)][u.src[k].phys]
			if w == notScheduled || w > t {
				allReady = false
			}
		}
		for k := 0; k < u.nsrc; k++ {
			fi := fileIdx(u.src[k].fp)
			w := s.regBus[fi][u.src[k].phys]
			if w == notScheduled || w > t {
				continue // no value yet
			}
			p := u.src[k].phys
			bit := uint64(1) << uint(p&63)
			if s.vsVal[fi][p>>6]&bit == 0 {
				s.vsVal[fi][p>>6] |= bit
				nVal++
			}
			if allReady && s.vsReady[fi][p>>6]&bit == 0 {
				s.vsReady[fi][p>>6] |= bit
				nReady++
			}
		}
	}
	s.valueHist.Add(nVal)
	s.readyHist.Add(nReady)
}
