package store

import (
	"context"
	"sync"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// PeerSource resolves which fleet peers may hold a key: Peers returns
// the object-API base URLs of the workers advertising the key's shard,
// best candidate first (rendezvous order). dispatch.Coordinator
// implements it from the inventory workers report on every poll.
type PeerSource interface {
	Peers(k sweep.Key) []string
}

// Peer is a Backend over the worker fleet's advertised store inventory:
// a read-only tier whose membership changes as workers come and go.
// Candidates for a key are tried in order with a shared context, so the
// tier-level hedging still bounds and cancels the whole attempt.
//
// Several workers can legitimately advertise the same shard — each
// stores what it simulated, not what it "owns" — so a 404 from the
// best-ranked candidate falls through to the next rather than ending
// the read.
type Peer struct {
	src  PeerSource
	opts RemoteOptions

	mu      sync.Mutex
	remotes map[string]*Remote // per-URL clients, reused across reads
}

// NewPeer returns the fleet-peer tier over src.
func NewPeer(src PeerSource, opts RemoteOptions) *Peer {
	return &Peer{src: src, opts: opts, remotes: make(map[string]*Remote)}
}

func (p *Peer) remote(url string) *Remote {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.remotes[url]
	if !ok {
		r = NewRemote(url, p.opts)
		p.remotes[url] = r
	}
	return r
}

// Get tries the advertising peers in rank order. No advertiser is a
// clean miss; an attempt error is remembered but later candidates are
// still tried, and the read reports an error only when no peer hit.
func (p *Peer) Get(ctx context.Context, k sweep.Key) (sim.Result, bool, error) {
	var firstErr error
	for _, url := range p.src.Peers(k) {
		res, ok, err := p.remote(url).Get(ctx, k)
		if ok {
			return res, true, nil
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if ctx.Err() != nil {
			break
		}
	}
	return sim.Result{}, false, firstErr
}

// Put is a no-op: peers populate their own stores by simulating, and
// promotion happens on the reading node's local tier.
func (p *Peer) Put(context.Context, sweep.Key, sim.Result) error { return nil }

// Len and SizeBytes are unknown for the fleet tier.
func (p *Peer) Len() int         { return 0 }
func (p *Peer) SizeBytes() int64 { return 0 }
