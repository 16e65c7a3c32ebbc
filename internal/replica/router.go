package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RouterOptions configures NewRouter. Primary is required.
type RouterOptions struct {
	// Primary is the primary's base URL; all writes land here, and it
	// also serves reads.
	Primary string
	// Followers are follower base URLs that share the read load.
	Followers []string
	// Client issues the proxied requests (default http.DefaultClient).
	Client *http.Client
	// HedgeDelay is how long a read may dawdle before a duplicate fires
	// at another ready backend (default 20ms). First answer wins.
	HedgeDelay time.Duration
	// ProbeEvery is the readiness probe period (default 1s).
	ProbeEvery time.Duration
	// Timeout bounds one proxied request (default 30s).
	Timeout time.Duration
}

func (o RouterOptions) withDefaults() RouterOptions {
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.HedgeDelay <= 0 {
		o.HedgeDelay = 20 * time.Millisecond
	}
	if o.ProbeEvery <= 0 {
		o.ProbeEvery = time.Second
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	return o
}

// backend is one routable node.
type backend struct {
	url     string
	primary bool
	ready   atomic.Bool
	wins    atomic.Uint64
}

// Router is a thin serving tier over one primary and N followers:
// writes forward to the primary, reads scatter over every ready backend
// with hedging — a read that dawdles past HedgeDelay fires a duplicate
// at the next ready backend and the first answer wins. Because followers
// mirror the primary byte for byte and report ready only when caught up,
// either copy's answer is the answer.
type Router struct {
	opt      RouterOptions
	backends []*backend
	mux      *http.ServeMux
	rr       atomic.Uint64
	hedges   atomic.Uint64
	stop     context.CancelFunc
	done     chan struct{}
}

// NewRouter builds the router and starts its readiness prober; Close
// stops it.
func NewRouter(opt RouterOptions) *Router {
	opt = opt.withDefaults()
	rt := &Router{opt: opt, mux: http.NewServeMux()}
	rt.backends = append(rt.backends, &backend{url: strings.TrimRight(opt.Primary, "/"), primary: true})
	for _, u := range opt.Followers {
		rt.backends = append(rt.backends, &backend{url: strings.TrimRight(u, "/")})
	}
	rt.mux.HandleFunc("/router/status", rt.handleStatus)
	rt.mux.HandleFunc("/query/batch", rt.handleBatch)
	for _, p := range []string{"/query", "/query/sid", "/topk", "/plan", "/stats"} {
		rt.mux.HandleFunc(p, rt.handleRead)
	}
	rt.mux.HandleFunc("/sets", rt.handleWrite)
	rt.mux.HandleFunc("/sets/", rt.handleWrite)
	ctx, cancel := context.WithCancel(context.Background())
	rt.stop = cancel
	rt.done = make(chan struct{})
	go rt.probeLoop(ctx)
	return rt
}

// Close stops the readiness prober.
func (rt *Router) Close() error {
	rt.stop()
	<-rt.done
	return nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// probeLoop keeps each backend's readiness current via GET /readyz.
func (rt *Router) probeLoop(ctx context.Context) {
	defer close(rt.done)
	probe := func() {
		var wg sync.WaitGroup
		for _, b := range rt.backends {
			wg.Add(1)
			go func(b *backend) {
				defer wg.Done()
				pctx, cancel := context.WithTimeout(ctx, rt.opt.ProbeEvery)
				defer cancel()
				req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.url+"/readyz", nil)
				if err != nil {
					b.ready.Store(false)
					return
				}
				resp, err := rt.opt.Client.Do(req)
				if err != nil {
					b.ready.Store(false)
					return
				}
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) // drain for connection reuse; the status code already decided
				resp.Body.Close()                                    // read-side close of a drained body
				b.ready.Store(resp.StatusCode == http.StatusOK)
			}(b)
		}
		wg.Wait()
	}
	probe()
	ticker := time.NewTicker(rt.opt.ProbeEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			probe()
		}
	}
}

// readyBackends returns ready backends rotated by a round-robin cursor,
// falling back to every backend when none probes ready (a cold router
// should degrade to trying, not to refusing).
func (rt *Router) readyBackends() []*backend {
	var ready []*backend
	for _, b := range rt.backends {
		if b.ready.Load() {
			ready = append(ready, b)
		}
	}
	if len(ready) == 0 {
		ready = append(ready, rt.backends...)
	}
	shift := int(rt.rr.Add(1)) % len(ready)
	return append(ready[shift:], ready[:shift]...)
}

// proxied is one completed backend exchange, body fully read.
type proxied struct {
	status int
	header http.Header
	body   []byte
	from   *backend
}

// forward performs one exchange against b, buffering the response.
func (rt *Router) forward(ctx context.Context, b *backend, method, path string, body []byte, hdr http.Header) (*proxied, error) {
	req, err := http.NewRequestWithContext(ctx, method, b.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := hdr.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.opt.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() // body fully read; close failure changes nothing
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	return &proxied{status: resp.StatusCode, header: resp.Header, body: data, from: b}, nil
}

func (rt *Router) reply(w http.ResponseWriter, p *proxied) {
	if ct := p.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-SSR-Backend", p.from.url)
	w.WriteHeader(p.status)
	w.Write(p.body) // client went away; nothing to recover
}

// handleRead serves a read with hedging: fire at the first ready
// backend, and if no answer lands within HedgeDelay, fire the same
// request at the next distinct backend; first success wins, the loser's
// context is cancelled.
func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		httpJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	order := rt.readyBackends()
	ctx, cancel := context.WithTimeout(r.Context(), rt.opt.Timeout)
	defer cancel()

	type attempt struct {
		p   *proxied
		err error
	}
	results := make(chan attempt, len(order))
	launched := 0
	launch := func() {
		b := order[launched]
		launched++
		go func() {
			p, err := rt.forward(ctx, b, r.Method, r.URL.RequestURI(), body, r.Header)
			results <- attempt{p, err}
		}()
	}
	launch()
	hedge := time.NewTimer(rt.opt.HedgeDelay)
	defer hedge.Stop()
	var lastErr error
	var lastBad *proxied
	for pendingAttempts := 1; pendingAttempts > 0; {
		select {
		case <-hedge.C:
			if launched < len(order) {
				rt.hedges.Add(1)
				launch()
				pendingAttempts++
				hedge.Reset(rt.opt.HedgeDelay)
			}
		case a := <-results:
			pendingAttempts--
			if a.err != nil {
				lastErr = a.err
			} else if a.p.status >= 500 {
				lastBad = a.p
			} else {
				a.p.from.wins.Add(1)
				rt.reply(w, a.p)
				return
			}
			// This attempt failed; hedge immediately if anything is left.
			if launched < len(order) {
				launch()
				pendingAttempts++
			}
		case <-ctx.Done():
			httpJSON(w, http.StatusGatewayTimeout, map[string]string{"error": ctx.Err().Error()})
			return
		}
	}
	if lastBad != nil {
		rt.reply(w, lastBad)
		return
	}
	httpJSON(w, http.StatusBadGateway, map[string]string{"error": fmt.Sprintf("no backend answered: %v", lastErr)})
}

// handleWrite forwards mutations to the primary, never hedged: writes
// are not idempotent.
func (rt *Router) handleWrite(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		httpJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.opt.Timeout)
	defer cancel()
	p, err := rt.forward(ctx, rt.backends[0], r.Method, r.URL.RequestURI(), body, r.Header)
	if err != nil {
		httpJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	rt.reply(w, p)
}

// batchRequest/batchResponse mirror internal/server's wire shapes:
// entries stay json.RawMessage so the router splits and reassembles
// without re-encoding anyone's numbers, while the batch-wide options
// ride along verbatim to every slice.
type batchRequest struct {
	Queries          []json.RawMessage `json:"queries"`
	Screen           bool              `json:"screen,omitempty"`
	ScreenMargin     float64           `json:"screenMargin,omitempty"`
	Workers          int               `json:"workers,omitempty"`
	AllowApproximate bool              `json:"allowApproximate,omitempty"`
}

type batchResponse struct {
	Results []json.RawMessage `json:"results"`
	Elapsed string            `json:"elapsed"`
}

// handleBatch scatters a batch positionally over the ready backends and
// gathers the answers back in order. Each slice rides one upstream
// /query/batch call; a failed slice fails the whole batch (partial
// answers would silently change semantics).
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		httpJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	var breq batchRequest
	if err := json.Unmarshal(body, &breq); err != nil {
		httpJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	order := rt.readyBackends()
	if len(breq.Queries) == 0 || len(order) == 1 {
		rt.handleRead(w, r)
		return
	}
	nslices := len(order)
	if nslices > len(breq.Queries) {
		nslices = len(breq.Queries)
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.opt.Timeout)
	defer cancel()
	start := time.Now()
	results := make([]json.RawMessage, len(breq.Queries))
	errs := make([]error, nslices)
	var wg sync.WaitGroup
	for slice := 0; slice < nslices; slice++ {
		wg.Add(1)
		go func(slice int) {
			defer wg.Done()
			var idx []int
			sub := breq
			sub.Queries = nil
			for i := slice; i < len(breq.Queries); i += nslices {
				idx = append(idx, i)
				sub.Queries = append(sub.Queries, breq.Queries[i])
			}
			payload, err := json.Marshal(sub)
			if err != nil {
				errs[slice] = err
				return
			}
			hdr := http.Header{}
			hdr.Set("Content-Type", "application/json")
			p, err := rt.forward(ctx, order[slice%len(order)], http.MethodPost, "/query/batch", payload, hdr)
			if err != nil {
				errs[slice] = err
				return
			}
			if p.status != http.StatusOK {
				errs[slice] = fmt.Errorf("backend %s: status %d: %s", p.from.url, p.status, bytes.TrimSpace(p.body))
				return
			}
			var bresp batchResponse
			if err := json.Unmarshal(p.body, &bresp); err != nil {
				errs[slice] = err
				return
			}
			if len(bresp.Results) != len(idx) {
				errs[slice] = fmt.Errorf("backend %s: %d results for %d queries", p.from.url, len(bresp.Results), len(idx))
				return
			}
			for j, i := range idx {
				results[i] = bresp.Results[j]
			}
		}(slice)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		httpJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	httpJSON(w, http.StatusOK, batchResponse{Results: results, Elapsed: time.Since(start).String()})
}

// routerStatus is the GET /router/status payload.
type routerStatus struct {
	Backends []routerBackendStatus `json:"backends"`
	Hedges   uint64                `json:"hedges"`
}

type routerBackendStatus struct {
	URL     string `json:"url"`
	Primary bool   `json:"primary"`
	Ready   bool   `json:"ready"`
	Wins    uint64 `json:"wins"`
}

func (rt *Router) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := routerStatus{Hedges: rt.hedges.Load()}
	for _, b := range rt.backends {
		st.Backends = append(st.Backends, routerBackendStatus{
			URL: b.url, Primary: b.primary, Ready: b.ready.Load(), Wins: b.wins.Load(),
		})
	}
	httpJSON(w, http.StatusOK, st)
}
