package store

import (
	"context"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// Backend is one tier of the multi-backend result store: the local disk
// Store, a remote rfserved object API, or the worker fleet's advertised
// inventory. Get and Put carry a Context because remote tiers are
// network calls that the hedged read-through must be able to cancel
// when a rival tier answers first.
//
// Get distinguishes a clean miss (ok=false, err=nil) from a failed
// fetch (err != nil): misses fall through to the next tier silently,
// errors are counted as remote_errors and trigger an immediate hedge.
type Backend interface {
	Get(ctx context.Context, k sweep.Key) (sim.Result, bool, error)
	Put(ctx context.Context, k sweep.Key, res sim.Result) error
	// Len and SizeBytes are advisory occupancy figures; tiers that
	// cannot know them (remote, peer) report 0.
	Len() int
	SizeBytes() int64
}

// localBackend adapts the disk Store's synchronous, infallible-surface
// methods to the Backend contract. Local I/O ignores the context: disk
// reads are not worth the cancellation plumbing, and the Store already
// degrades corruption and write failures to misses internally.
type localBackend struct{ s *Store }

// Backend returns the store as the local tier of a multi-backend
// read-through stack.
func (s *Store) Backend() Backend { return localBackend{s} }

func (l localBackend) Get(_ context.Context, k sweep.Key) (sim.Result, bool, error) {
	res, ok := l.s.Get(k)
	return res, ok, nil
}

func (l localBackend) Put(_ context.Context, k sweep.Key, res sim.Result) error {
	l.s.Put(k, res)
	return nil
}

func (l localBackend) Len() int         { return l.s.Len() }
func (l localBackend) SizeBytes() int64 { return l.s.SizeBytes() }
