package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/rf/api"
)

// maxObjectBody bounds how much of a remote object response is read: a
// misbehaving or malicious tier cannot balloon memory. Result documents
// are a few KB; 4 MiB leaves two orders of magnitude of headroom.
const maxObjectBody = 4 << 20

// RemoteOptions configures a Remote backend.
type RemoteOptions struct {
	// APIKey, when set, authenticates object requests against a
	// tenant-registry server (sent as X-RF-API-Key).
	APIKey string
	// Client is the HTTP client to use; nil means a client with a
	// per-attempt Timeout of 5s.
	Client *http.Client
}

// Remote is a Backend over another rfserved's GET/PUT /v1/objects API —
// the remote blob tier of the store. It is stateless and safe for
// concurrent use.
type Remote struct {
	base   string
	apiKey string
	hc     *http.Client
}

// NewRemote returns a backend for the rfserved object API rooted at
// base (e.g. "http://store-1:8080").
func NewRemote(base string, opts RemoteOptions) *Remote {
	hc := opts.Client
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Second}
	}
	return &Remote{
		base:   strings.TrimSuffix(base, "/"),
		apiKey: opts.APIKey,
		hc:     hc,
	}
}

// RemoteTiers parses a comma-separated list of rfserved base URLs (the
// commands' -store-remote flag) into write-through remote tiers, in
// list order. Blank entries are skipped.
func RemoteTiers(urls string, opts RemoteOptions) []Tier {
	var tiers []Tier
	for _, u := range strings.Split(urls, ",") {
		if u = strings.TrimSpace(u); u != "" {
			tiers = append(tiers, Tier{
				Name: "remote", ID: u,
				Backend:      NewRemote(u, opts),
				WriteThrough: true,
			})
		}
	}
	return tiers
}

// URL returns the remote's base URL.
func (r *Remote) URL() string { return r.base }

func (r *Remote) objectURL(k sweep.Key) string {
	return r.base + "/v1/objects/" + string(k)
}

func (r *Remote) newRequest(ctx context.Context, method, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set(api.VersionHeader, fmt.Sprint(api.Version))
	if r.apiKey != "" {
		req.Header.Set(api.KeyHeader, r.apiKey)
	}
	return req, nil
}

// Get fetches one object. A 404 is a clean miss; any transport failure,
// non-2xx status, or a document whose embedded key does not match the
// requested key (the entry-embeds-key corruption check, applied over
// HTTP exactly as it is on disk) is an error — never a wrong result.
func (r *Remote) Get(ctx context.Context, k sweep.Key) (sim.Result, bool, error) {
	req, err := r.newRequest(ctx, http.MethodGet, r.objectURL(k), nil)
	if err != nil {
		return sim.Result{}, false, err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return sim.Result{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxObjectBody))
		return sim.Result{}, false, nil
	}
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxObjectBody))
		return sim.Result{}, false, fmt.Errorf("store remote: GET %s: %s", k[:8], resp.Status)
	}
	var obj api.Object
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxObjectBody)).Decode(&obj); err != nil {
		return sim.Result{}, false, fmt.Errorf("store remote: GET %s: %w", k[:8], err)
	}
	if obj.Key != string(k) {
		return sim.Result{}, false, fmt.Errorf("store remote: object %s holds key %.8s", k[:8], obj.Key)
	}
	return obj.Result, true, nil
}

// Put uploads one object (write-behind from the tier layer). Failures
// are reported, not retried: the object remains durable in the local
// tier and a future read-through will miss remotely and repopulate.
func (r *Remote) Put(ctx context.Context, k sweep.Key, res sim.Result) error {
	body, err := json.Marshal(api.Object{Key: string(k), Result: res})
	if err != nil {
		return err
	}
	req, err := r.newRequest(ctx, http.MethodPut, r.objectURL(k), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxObjectBody))
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("store remote: PUT %s: %s", k[:8], resp.Status)
	}
	return nil
}

// Len and SizeBytes are unknown for a remote tier.
func (r *Remote) Len() int         { return 0 }
func (r *Remote) SizeBytes() int64 { return 0 }
