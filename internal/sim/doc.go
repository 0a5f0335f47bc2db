// Package sim is the cycle-level 8-wide out-of-order processor (Table 1
// of the paper) that evaluates the register file organizations in
// internal/core: gshare branch prediction, split I/D caches, a 128-entry
// ROB ring, a 64-entry load/store queue, and an event-driven
// wakeup/select scheduler that is allocation-free in steady state.
//
// A Simulator consumes one isa.Stream (normally a trace.Generator) and
// produces a Result. Each simulation is independent: sweeps run many
// Simulators in parallel, one job per call.
package sim
