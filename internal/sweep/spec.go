package sweep

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SchemaVersion is the version of the JSON sweep-spec and wire schema.
// Specs may carry it explicitly ("schema": 1); a missing field means
// version 1 (the schema predates the stamp), and any other value is
// rejected loudly. The rf package re-exports this constant, and the
// rfserved API negotiates it via the X-RF-API-Version header.
const SchemaVersion = 1

// Spec is a user-defined sweep matrix: the cross product of benchmarks,
// architecture configurations and seed replicates, each run for the same
// instruction budget. It is the JSON input of cmd/rfbatch and the
// rfserved submission body.
type Spec struct {
	// Schema is the spec schema version; 0 (absent) means SchemaVersion.
	Schema int `json:"schema,omitempty"`
	// Name labels the sweep in reports.
	Name string `json:"name,omitempty"`
	// Instructions is the per-run dynamic instruction budget
	// (default 120000).
	Instructions uint64 `json:"instructions,omitempty"`
	// Parallelism bounds concurrent simulations (default GOMAXPROCS).
	Parallelism int `json:"parallelism,omitempty"`
	// Priority requests a scheduling tier for the sweep's jobs under
	// contention; higher runs sooner. rfserved clamps it to the submitting
	// tenant's tier, so a tenant cannot outrank its plan by asking.
	// Ignored by local (rfbatch, library) runs, which have no queue to
	// jump.
	Priority int `json:"priority,omitempty"`
	// Benchmarks names the workloads; empty runs all 18 SPEC95 proxies.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Seeds lists trace-seed overrides for replicated runs; empty uses
	// each profile's built-in seed.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Architectures holds one matrix per register file family; each
	// expands to the cross product of its dimension lists through the
	// family registry (internal/arch, re-exported as rf).
	Architectures []ArchMatrix `json:"architectures"`
}

// ArchMatrix is the registry's matrix type: one register file family
// plus per-dimension value lists. See arch.Matrix for the field schema.
type ArchMatrix = arch.Matrix

// ParseSpec decodes and validates a JSON sweep specification. Unknown
// fields and unsupported schema versions are rejected, so a typo'd or
// drifted spec fails loudly instead of being silently ignored.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("sweep: bad spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate reports a specification error, or nil. It never expands the
// sweep matrix, so it stays cheap on specs whose cross product is huge;
// use JobCount to bound the expansion before calling Jobs.
func (s *Spec) Validate() error {
	if s.Schema != 0 && s.Schema != SchemaVersion {
		return fmt.Errorf("sweep: spec schema version %d not supported (this build speaks %d)",
			s.Schema, SchemaVersion)
	}
	if len(s.Architectures) == 0 {
		return fmt.Errorf("sweep: spec needs at least one architecture")
	}
	for _, b := range s.Benchmarks {
		if _, ok := trace.ByName(b); !ok {
			return fmt.Errorf("sweep: unknown benchmark %q", b)
		}
	}
	for i := range s.Architectures {
		if err := s.Architectures[i].Validate(); err != nil {
			return fmt.Errorf("sweep: architectures[%d]: %w", i, err)
		}
	}
	return nil
}

// MaxJobCount is the saturation bound of JobCount: any spec expanding to
// at least this many jobs reports exactly MaxJobCount (see
// arch.MaxCount).
const MaxJobCount = arch.MaxCount

// JobCount returns the number of jobs the spec expands to, without
// allocating the expansion; counts saturate at MaxJobCount. It lets
// callers reject oversized specs before Jobs materializes them.
func (s *Spec) JobCount() (int, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	benchmarks := len(s.Benchmarks)
	if benchmarks == 0 {
		benchmarks = len(trace.All())
	}
	perPoint := arch.MulSat(benchmarks, arch.CountOr(len(s.Seeds)))
	total := 0
	for i := range s.Architectures {
		n := arch.MulSat(s.Architectures[i].PointCount(), perPoint)
		if total > MaxJobCount-n {
			return MaxJobCount, nil
		}
		total += n
	}
	return total, nil
}

// instructions returns the budget with its default applied.
func (s *Spec) instructions() uint64 {
	if s.Instructions == 0 {
		return 120000
	}
	return s.Instructions
}

// Jobs expands the matrix into the full job list: for each architecture
// point (resolved through the family registry), every benchmark at every
// seed.
func (s *Spec) Jobs() ([]Job, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	profiles := trace.All()
	if len(s.Benchmarks) > 0 {
		profiles = nil
		for _, b := range s.Benchmarks {
			p, _ := trace.ByName(b)
			profiles = append(profiles, p)
		}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	expanded := make([][]arch.Point, len(s.Architectures))
	n := 0
	for i := range s.Architectures {
		points, err := s.Architectures[i].Expand()
		if err != nil {
			return nil, err
		}
		expanded[i] = points
		n += len(points)
	}
	jobs := make([]Job, 0, n*len(profiles)*len(seeds))
	for _, points := range expanded {
		for _, pt := range points {
			for _, p := range profiles {
				for _, seed := range seeds {
					cfg := sim.DefaultConfig(pt.RF, s.instructions())
					if pt.PhysRegs > 0 {
						cfg.PhysRegs = pt.PhysRegs
					}
					jobs = append(jobs, Job{Profile: p, Config: cfg, Seed: seed})
				}
			}
		}
	}
	return jobs, nil
}
