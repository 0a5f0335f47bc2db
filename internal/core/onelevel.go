package core

import "fmt"

// BankAssignment selects how results are distributed over the banks of a
// one-level organization.
type BankAssignment uint8

const (
	// AssignRoundRobin cycles destination registers over the banks.
	AssignRoundRobin BankAssignment = iota
	// AssignLeastLoaded places each result in the bank with the fewest
	// live registers.
	AssignLeastLoaded
)

// String returns the assignment policy name.
func (b BankAssignment) String() string {
	switch b {
	case AssignRoundRobin:
		return "round-robin"
	case AssignLeastLoaded:
		return "least-loaded"
	}
	return "unknown"
}

// OneLevelConfig describes a single-level multiple-banked register file:
// every bank can feed the functional units directly, each result lives in
// exactly one bank (no replication), and banks have private read/write
// ports. This is the organization the paper outlines in Section 3
// (Figure 4a) and lists as ongoing work; it is implemented here as an
// extension for comparison against the register file cache.
type OneLevelConfig struct {
	// NumPhys is the number of physical registers.
	NumPhys int
	// Banks is the number of banks.
	Banks int
	// ReadPortsPerBank and WritePortsPerBank bound per-bank, per-cycle
	// port usage.
	ReadPortsPerBank, WritePortsPerBank int
	// Assignment selects the result-distribution policy.
	Assignment BankAssignment
}

// OneLevel is the single-level multiple-banked register file. All banks
// are one-cycle with a single bypass level; the cost of banking is read
// port contention within each bank.
type OneLevel struct {
	cfg       OneLevelConfig
	bankOf    []int32 // per physical register; -1 until first write-back
	live      []int   // live registers per bank (least-loaded policy)
	readsLeft []int
	need      []int // per-bank read demand of the instruction in TryRead
	wb        []*wbReservation
	nextBank  int
	now       uint64
	stats     FileStats
}

// NewOneLevel validates cfg and builds the model.
func NewOneLevel(cfg OneLevelConfig) *OneLevel {
	if cfg.NumPhys <= 0 {
		panic("core: NumPhys must be positive")
	}
	if cfg.Banks <= 0 {
		panic("core: bank count must be positive")
	}
	if cfg.ReadPortsPerBank <= 0 || cfg.WritePortsPerBank <= 0 {
		panic("core: port counts must be positive (use Unlimited)")
	}
	f := &OneLevel{
		cfg:       cfg,
		bankOf:    make([]int32, cfg.NumPhys),
		live:      make([]int, cfg.Banks),
		readsLeft: make([]int, cfg.Banks),
		need:      make([]int, cfg.Banks),
		wb:        make([]*wbReservation, cfg.Banks),
	}
	for i := range f.bankOf {
		// Architectural initial values are spread round-robin.
		f.bankOf[i] = int32(i % cfg.Banks)
		f.live[i%cfg.Banks]++
	}
	for b := range f.wb {
		f.wb[b] = newWBReservation(cfg.WritePortsPerBank)
	}
	return f
}

// ReadLatency implements File: banks are single-cycle.
func (f *OneLevel) ReadLatency() int { return 1 }

// BeginCycle implements File.
func (f *OneLevel) BeginCycle(t uint64) {
	f.now = t
	for b := range f.readsLeft {
		f.readsLeft[b] = f.cfg.ReadPortsPerBank
		f.wb[b].advance(t)
	}
}

// AssignBank chooses (and records) the home bank for physical register p
// according to the assignment policy. The simulator calls it at rename
// time, when the destination register is allocated.
func (f *OneLevel) AssignBank(p PhysReg) int {
	var b int
	switch f.cfg.Assignment {
	case AssignRoundRobin:
		b = f.nextBank
		f.nextBank = (f.nextBank + 1) % f.cfg.Banks
	case AssignLeastLoaded:
		b = 0
		for i := 1; i < f.cfg.Banks; i++ {
			if f.live[i] < f.live[b] {
				b = i
			}
		}
	default:
		panic(fmt.Sprintf("core: unknown bank assignment %d", f.cfg.Assignment))
	}
	f.bankOf[p] = int32(b)
	f.live[b]++
	return b
}

// ReserveWriteback implements File. The bank is not known to this method,
// so the one-level file exposes ReserveWritebackBank; ReserveWriteback
// reserves in the most recently assigned register's bank only when callers
// use the generic interface. To keep the File contract usable, the generic
// method reserves the globally earliest slot across banks for the last
// assigned bank — simulators that model banking precisely should call
// ReserveWritebackBank.
func (f *OneLevel) ReserveWriteback(earliest uint64) uint64 {
	// Generic fallback: pick the bank with the earliest available slot.
	best := f.wb[0].reserve(earliest)
	return best
}

// ReserveWritebackBank books a write-back slot in p's home bank.
func (f *OneLevel) ReserveWritebackBank(p PhysReg, earliest uint64) uint64 {
	return f.wb[f.bankOf[p]].reserve(earliest)
}

// TryRead implements File: operands arrive via the (single-level) bypass
// at t = w−1, otherwise through a read port of the operand's home bank.
func (f *OneLevel) TryRead(t uint64, ops []Operand, demand bool) bool {
	need := f.need
	clear(need)
	for i := range ops {
		w := ops[i].Bus
		switch {
		case t+2 == w:
			ops[i].ViaBypass = true
		case t+1 >= w:
			ops[i].ViaBypass = false
			need[f.bankOf[ops[i].Reg]]++
		default:
			return false
		}
	}
	for b, n := range need {
		if n > f.readsLeft[b] {
			f.stats.ReadPortConflicts++
			return false
		}
	}
	for b, n := range need {
		f.readsLeft[b] -= n
	}
	for i := range ops {
		if ops[i].ViaBypass {
			f.stats.BypassReads++
		} else {
			f.stats.Reads++
		}
	}
	return true
}

// Writeback implements File; nothing beyond the reserved bank write is
// needed.
func (f *OneLevel) Writeback(t uint64, p PhysReg, hints WBHints) {}

// NotePrefetch implements File; a one-level organization has no transfers.
func (f *OneLevel) NotePrefetch(t uint64, p PhysReg, w uint64) {}

// Release implements File: the register's bank slot is freed.
func (f *OneLevel) Release(p PhysReg) {
	if b := f.bankOf[p]; b >= 0 && f.live[b] > 0 {
		f.live[b]--
	}
}

// Stats implements File.
func (f *OneLevel) Stats() FileStats { return f.stats }

// BankOf returns p's current home bank (test hook).
func (f *OneLevel) BankOf(p PhysReg) int { return int(f.bankOf[p]) }
