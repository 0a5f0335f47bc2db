package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/tenant"
	"repro/internal/wal"
	"repro/internal/warehouse"
	"repro/rf/client"
)

// node is one in-process rfserved lifetime over a state directory,
// composed exactly as cmd/rfserved composes a single node started with
// -store, -wal-dir and -warehouse-dir: the disk store behind a MemCache
// front, the store's object API, the server journal and the warehouse.
// It listens on loopback TCP so clients pay real HTTP costs.
type node struct {
	st      *store.Store
	journal *wal.WAL
	wh      *warehouse.Warehouse
	srv     *server.Server
	hs      *http.Server
	served  chan error
	url     string
	// transport is the loopback client transport; closed with the node
	// so idle keep-alive connections do not outlive the server.
	transport *http.Transport
}

// openNode starts a server on dir and returns once /v1/version answers.
// The returned duration is the restart cost a user pays: store, journal
// (with replay) and warehouse open, server construction, and the first
// answered request. tr, when non-nil, wraps the cache seams and records
// the open of each layer as a span.
func openNode(dir string, reg *tenant.Registry, tr *tracer) (*node, time.Duration, error) {
	t0 := time.Now()
	n := &node{served: make(chan error, 1)}
	var err error
	_, end := tr.begin("store.open", 0, "")
	n.st, err = store.Open(filepath.Join(dir, "store"), store.Options{})
	end()
	if err != nil {
		return nil, 0, err
	}
	_, end = tr.begin("wal.open", 0, "")
	n.journal, err = wal.Open(filepath.Join(dir, "wal", "server"), wal.Options{})
	end()
	if err != nil {
		n.st.Close()
		return nil, 0, err
	}
	_, end = tr.begin("warehouse.open", 0, "")
	n.wh, err = warehouse.Open(filepath.Join(dir, "warehouse"), warehouse.Options{})
	end()
	if err != nil {
		n.journal.Close()
		n.st.Close()
		return nil, 0, err
	}
	var back sweep.Cache = n.st
	if tr != nil {
		back = &timedCache{inner: n.st, tr: tr, get: "store.get", put: "store.put"}
	}
	var cache sweep.Cache = sweep.Tiered(sweep.NewMemCache(), back)
	if tr != nil {
		cache = &timedCache{inner: cache, tr: tr, get: "sweep.cache_get", put: "sweep.cache_put"}
	}
	_, end = tr.begin("server.new", 0, "")
	n.srv = server.New(server.Config{
		Cache:     cache,
		Objects:   n.st.Backend(),
		Journal:   n.journal,
		Warehouse: n.wh,
		Tenants:   reg,
	})
	end()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.srv.Shutdown(context.Background())
		n.closeStores()
		return nil, 0, err
	}
	n.url = "http://" + ln.Addr().String()
	n.hs = &http.Server{Handler: n.srv}
	go func() { n.served <- n.hs.Serve(ln) }()
	n.transport = &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: 64}
	if _, err := n.client("").Version(context.Background()); err != nil {
		n.close()
		return nil, 0, fmt.Errorf("server did not answer: %w", err)
	}
	return n, time.Since(t0), nil
}

// client returns an rf/client for this node authenticated as key ("" for
// anonymous). Retries are logged through tr so the traced run counts them.
func (n *node) client(key string, opts ...client.Option) *client.Client {
	opts = append([]client.Option{
		client.WithHTTPClient(&http.Client{Transport: n.transport}),
		client.WithAPIKey(key),
	}, opts...)
	return client.New(n.url, opts...)
}

// metrics scrapes /metrics into name{labels} → value.
func (n *node) metrics() (map[string]float64, error) {
	resp, err := (&http.Client{Transport: n.transport}).Get(n.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseExposition(string(body)), nil
}

// close shuts the node down in cmd/rfserved's order: scheduler, HTTP,
// store, journal.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{n.srv.Shutdown(ctx), n.hs.Shutdown(ctx)}
	if err := <-n.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	n.transport.CloseIdleConnections()
	errs = append(errs, n.closeStores())
	return errors.Join(errs...)
}

func (n *node) closeStores() error {
	return errors.Join(n.st.Close(), n.journal.Close())
}
