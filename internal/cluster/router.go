// The routing tier.
//
// Router is a stdlib-HTTP reverse proxy specialised for the comparative-set
// service: it places categories on worker replicas via the consistent-hash
// ring, steers reads toward the healthiest replica, retries idempotent
// work under a shared budget, fans mutations out to every replica of a
// shard, and reconciles the replicas' epoch/generation receipts so a
// replica that missed or mangled a write is drained from reads instead of
// silently serving stale selections.
//
// Read path (select / extract / targets): candidates are the category's
// replica set ordered by health rank then ring preference, minus replicas
// marked divergent for that category and minus open breakers. Attempts run
// one at a time in candidate order. The first is free; every retry (after
// jittered backoff, on transport error or 5xx only) withdraws from the
// retry budget. A 4xx is a deterministic answer — forwarded verbatim, never
// retried. timeout_ms in the forwarded body is rewritten to the remaining
// deadline budget so a retry never grants an upstream more time than the
// client has left.
//
// Write path (review mutations): serialized per category so every replica
// applies mutations in the same order, then fanned out to the full replica
// set. Receipts are compared by corpus-fingerprint suffix and per-item
// generation — epochSeq prefixes are per-process and deliberately ignored.
// Replicas that fail the write or disagree with the quorum answer are
// marked divergent for that category.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"comparesets/internal/faultinject"
	"comparesets/internal/obs"
	"comparesets/internal/selectreq"
)

// RouterOptions holds a router's deployment settings. Backends is
// required; the routing policy itself is fixed (see defaultTuning).
type RouterOptions struct {
	// Backends are the worker base URLs (e.g. http://127.0.0.1:8081).
	Backends []string
	// Replication is how many replicas hold each category (default: all
	// backends; clamped to [1, len(Backends)]).
	Replication int
	// EdgeCacheBytes is the edge response-cache budget (default
	// DefaultEdgeCacheBytes).
	EdgeCacheBytes int64
	// Logger for lifecycle and divergence events (default log.Default()).
	Logger *log.Logger
}

// tuning is the routing policy: ring, read, resilience and upstream
// settings. Every router runs defaultTuning; in-package tests copy it and
// shorten its timings through newRouter.
type tuning struct {
	// vnodes is the per-backend vnode count of the hash ring. NewRing reads
	// it from defaultTuning.
	vnodes int
	// maxRetries bounds extra read attempts after the first.
	maxRetries int
	// defaultTimeout is the per-request deadline when the client sends no
	// timeout_ms.
	defaultTimeout time.Duration
	// healthInterval is the /readyz poll period.
	healthInterval time.Duration
	breaker        breakerConfig
	retryBudget    retryBudgetConfig
	backoff        backoffConfig
	// upstreamIdleConns is MaxIdleConnsPerHost on the upstream transport,
	// sized for replica fan-out under concurrency.
	upstreamIdleConns int
	// upstreamTimeout is the upstream client's backstop timeout —
	// per-request contexts carry the real deadlines, this only bounds a
	// wedged exchange.
	upstreamTimeout time.Duration
}

// defaultTuning is the one routing policy. Backoff jitter is seeded from
// the faultinject seed at construction so chaos runs are reproducible.
var defaultTuning = tuning{
	vnodes:         128,
	maxRetries:     2,
	defaultTimeout: 30 * time.Second,
	healthInterval: 500 * time.Millisecond,
	breaker: breakerConfig{
		ConsecutiveFailures: 5,
		Window:              50,
		ErrorRate:           0.5,
		MinSamples:          10,
		Cooldown:            500 * time.Millisecond,
		HalfOpenProbes:      1,
		SuccessesToClose:    2,
	},
	retryBudget:       retryBudgetConfig{Tokens: 10, Ratio: 0.1},
	backoff:           backoffConfig{Base: 5 * time.Millisecond, Cap: 100 * time.Millisecond},
	upstreamIdleConns: 32,
	upstreamTimeout:   60 * time.Second,
}

// timeoutMSRe rewrites the timeout_ms field in-place so the rest of the
// body's bytes — and therefore the worker's response bytes — are untouched.
var timeoutMSRe = regexp.MustCompile(`"timeout_ms"\s*:\s*[0-9]+`)

// Router is the fault-tolerant routing tier over a fixed set of worker
// replicas.
type Router struct {
	tun      tuning
	client   *http.Client
	ring     *Ring
	breakers map[string]*Breaker
	health   *HealthWatcher
	budget   *RetryBudget
	reg      *obs.Registry
	logger   *log.Logger
	edge     *edgeCache

	// Per-request counters, resolved once per route and (backend, outcome).
	routes   *obs.CounterSet[string]
	forwards *obs.CounterSet[forwardKey]

	rngMu sync.Mutex
	rng   *rand.Rand

	mu        sync.Mutex
	catLocks  map[string]*sync.Mutex
	divergent map[string]bool // addr + "\x00" + category
}

// NewRouter builds (but does not start) a router over the backends.
func NewRouter(opts RouterOptions) (*Router, error) {
	return newRouter(opts, defaultTuning)
}

// newRouter builds a router that runs the given policy.
func newRouter(opts RouterOptions, tun tuning) (*Router, error) {
	replication := opts.Replication
	if replication <= 0 {
		replication = len(opts.Backends)
	}
	ring, err := NewRing(opts.Backends, replication)
	if err != nil {
		return nil, err
	}
	logger := opts.Logger
	if logger == nil {
		logger = log.Default()
	}
	reg := obs.NewRegistry()
	rt := &Router{
		tun: tun,
		client: &http.Client{
			Timeout: tun.upstreamTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        tun.upstreamIdleConns * len(opts.Backends),
				MaxIdleConnsPerHost: tun.upstreamIdleConns,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		ring:      ring,
		breakers:  make(map[string]*Breaker, len(opts.Backends)),
		budget:    newRetryBudget(tun.retryBudget),
		reg:       reg,
		logger:    logger,
		rng:       rand.New(rand.NewSource(faultinject.CurrentSeed())),
		edge:      newEdgeCache(opts.EdgeCacheBytes, reg),
		catLocks:  map[string]*sync.Mutex{},
		divergent: map[string]bool{},
	}
	rt.routes = obs.NewCounterSet(rt.reg, "comparesets_router_requests_total",
		"Requests accepted by the router, by route.",
		func(route string) obs.Labels { return obs.Labels{"route": route} })
	rt.forwards = obs.NewCounterSet(rt.reg, "comparesets_router_forward_total",
		"Forward attempts per backend by outcome.",
		func(k forwardKey) obs.Labels { return obs.Labels{"backend": k.addr, "outcome": k.outcome} })
	for _, addr := range opts.Backends {
		b := newBreaker(tun.breaker)
		addr := addr
		b.OnTransition(func(from, to BreakerState) {
			rt.reg.Counter("comparesets_router_breaker_transitions_total",
				"Circuit-breaker state transitions per backend.",
				obs.Labels{"backend": addr, "to": to.String()}).Inc()
			rt.logger.Printf("router: breaker %s: %s -> %s", addr, from, to)
		})
		rt.breakers[addr] = b
	}
	rt.health = NewHealthWatcher(opts.Backends, &http.Client{Timeout: defaultProbeTimeout}, tun.healthInterval, func(addr, from, to string) {
		rt.logger.Printf("router: health %s: %s -> %s", addr, from, to)
	})
	return rt, nil
}

// Start launches the health watcher.
func (rt *Router) Start() { rt.health.Start() }

// Stop terminates the health watcher.
func (rt *Router) Stop() { rt.health.Stop() }

// Ring exposes the placement ring (for tests and ops tooling).
func (rt *Router) Ring() *Ring { return rt.ring }

// Registry exposes the router's metrics registry.
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Handler returns the router's HTTP handler: the worker API surface plus
// routing-tier operational endpoints.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /api/v1/categories", rt.handleCategories)
	mux.HandleFunc("GET /api/v1/targets", rt.handleTargets)
	mux.HandleFunc("POST /api/v1/select", rt.handleRead)
	mux.HandleFunc("POST /api/v1/extract", rt.handleRead)
	mux.HandleFunc("POST /api/v1/corpora/{category}/items/{item}/reviews", rt.handleMutation)
	mux.HandleFunc("PATCH /api/v1/corpora/{category}/items/{item}/reviews/{review}", rt.handleMutation)
	mux.HandleFunc("DELETE /api/v1/corpora/{category}/items/{item}/reviews/{review}", rt.handleMutation)
	mux.HandleFunc("GET "+SnapshotPathPrefix+"{category}", rt.handleSnapshotProxy)
	obs.RegisterOps(mux, rt.reg)
	return mux
}

// --- candidate selection ---------------------------------------------------

// readCandidates returns the category's replica set ordered by health rank
// then ring preference, with replicas divergent for this category removed.
// If draining divergent replicas would empty the set entirely they are
// kept (serving possibly-stale data beats serving nothing).
func (rt *Router) readCandidates(category string) []string {
	placement := rt.ring.Placement(category)
	kept := placement[:0:0]
	for _, addr := range placement {
		if !rt.isDivergent(addr, category) {
			kept = append(kept, addr)
		}
	}
	if len(kept) == 0 {
		kept = placement
	}
	states := rt.health.States()
	rank := make(map[string]int, len(kept))
	order := make(map[string]int, len(kept))
	for i, addr := range kept {
		rank[addr] = healthRank(states[addr])
		order[addr] = i
	}
	sort.SliceStable(kept, func(a, b int) bool {
		if rank[kept[a]] != rank[kept[b]] {
			return rank[kept[a]] < rank[kept[b]]
		}
		return order[kept[a]] < order[kept[b]]
	})
	return kept
}

func (rt *Router) isDivergent(addr, category string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.divergent[addr+"\x00"+category]
}

// markDivergent drains a replica from reads of one category after it missed
// or disagreed on a mutation — a replica that missed even one write cannot
// serve byte-identical selections for that category. The drain is lifted by
// clearDivergent once the replica proves convergence: mutations keep fanning
// out to divergent replicas, and a restart + snapshot join makes the next
// receipt match the quorum again.
func (rt *Router) markDivergent(addr, category, why string) {
	rt.mu.Lock()
	already := rt.divergent[addr+"\x00"+category]
	rt.divergent[addr+"\x00"+category] = true
	rt.mu.Unlock()
	if !already {
		rt.reg.Counter("comparesets_router_divergence_total",
			"Replicas drained from a category after a missed or mismatched mutation.",
			obs.Labels{"backend": addr}).Inc()
		rt.logger.Printf("router: divergent replica %s for %q: %s", addr, category, why)
		// A replica just proved the category's replica set is not in one
		// state; whatever the edge memoized for it is no longer provably
		// current.
		rt.edge.flush(category)
	}
}

// clearDivergent readmits a replica to a category's reads after proof of
// convergence: a mutation receipt whose corpus fingerprint and generation
// match the quorum answer. Receipt equality implies byte-equal corpus
// state, so this cannot readmit a replica that is still missing a write —
// a replica that skipped write N diverges in fingerprint on write N+1 and
// stays drained.
func (rt *Router) clearDivergent(addr, category string) {
	rt.mu.Lock()
	was := rt.divergent[addr+"\x00"+category]
	delete(rt.divergent, addr+"\x00"+category)
	rt.mu.Unlock()
	if was {
		rt.reg.Counter("comparesets_router_rejoins_total",
			"Replicas readmitted to a category's reads after a quorum-matching receipt.",
			obs.Labels{"backend": addr}).Inc()
		rt.logger.Printf("router: replica %s reconverged for %q; readmitted to reads", addr, category)
		// The readmitted replica changes who answers reads; flush so the
		// first post-rejoin serves are proxied rather than replayed.
		rt.edge.flush(category)
	}
}

func (rt *Router) catLock(category string) *sync.Mutex {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m, ok := rt.catLocks[category]
	if !ok {
		m = &sync.Mutex{}
		rt.catLocks[category] = m
	}
	return m
}

func (rt *Router) jitterDelay(attempt int) time.Duration {
	rt.rngMu.Lock()
	defer rt.rngMu.Unlock()
	return rt.tun.backoff.delay(attempt, rt.rng)
}

// --- forwarded response plumbing -------------------------------------------

// fwdResp is one upstream answer, buffered so it can be replayed to the
// client verbatim.
type fwdResp struct {
	status      int
	contentType string
	retryAfter  string
	// instance is the worker's instance header, which the edge learns
	// membership from; it is not replayed to clients.
	instance string
	body     []byte
}

// bodyBufPool recycles the scratch buffers that drain request and upstream
// bodies. io.ReadAll grows and abandons a fresh buffer per attempt; under
// load that garbage dominates the router's allocation profile, so bodies
// are drained through a pooled buffer and copied out at exact size
// instead.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readAllPooled drains r through a pooled scratch buffer and returns an
// exact-size copy of the bytes.
func readAllPooled(r io.Reader) ([]byte, error) {
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodyBufPool.Put(buf)
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

func (rt *Router) doAttempt(ctx context.Context, addr, method, pathAndQuery string, body []byte, contentType string) (*fwdResp, error) {
	if err := faultinject.CheckCtx(ctx, faultinject.PointRouterForward); err != nil {
		return nil, err
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, addr+pathAndQuery, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := readAllPooled(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading upstream body: %w", err)
	}
	return &fwdResp{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		instance:    resp.Header.Get(selectreq.InstanceHeader),
		body:        b,
	}, nil
}

// writeFwd replays a buffered answer to the client. A failed body write
// means the client went away mid-response — counted, not silently dropped.
func (rt *Router) writeFwd(w http.ResponseWriter, f *fwdResp) {
	if f.contentType != "" {
		w.Header().Set("Content-Type", f.contentType)
	}
	if f.retryAfter != "" {
		w.Header().Set("Retry-After", f.retryAfter)
	}
	w.WriteHeader(f.status)
	if _, err := w.Write(f.body); err != nil {
		rt.countClientAbort("forward")
	}
}

// countClientAbort accounts a response the client abandoned mid-write —
// the routing tier's counterpart of the worker's
// comparesets_client_aborts_total.
func (rt *Router) countClientAbort(route string) {
	rt.reg.Counter("comparesets_router_client_aborts_total",
		"Responses abandoned by the client mid-write (499-style), by route.",
		obs.Labels{"route": route}).Inc()
}

// errResp builds a router-originated error in the service's envelope shape
// as a replayable fwdResp, so router errors are indistinguishable in shape
// from worker ones whichever path writes them.
func errResp(status int, code, msg string) *fwdResp {
	env := struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}{}
	env.Error.Code = code
	env.Error.Message = msg
	b, _ := json.Marshal(env)
	return &fwdResp{status: status, contentType: "application/json", body: append(b, '\n')}
}

// writeErr emits the service's error envelope for router-originated errors.
func writeErr(w http.ResponseWriter, status int, code, msg string) {
	f := errResp(status, code, msg)
	w.Header().Set("Content-Type", f.contentType)
	w.WriteHeader(f.status)
	w.Write(f.body)
}

// forwardKey labels one comparesets_router_forward_total series.
type forwardKey struct{ addr, outcome string }

func (rt *Router) countForward(addr, outcome string) {
	rt.forwards.With(forwardKey{addr, outcome}).Inc()
}

func (rt *Router) countRoute(route string) {
	rt.routes.With(route).Inc()
}

// --- read path --------------------------------------------------------------

// handleRead forwards select/extract bodies with the full resilience stack.
// Select bodies the router can prove cacheable take the edge fast path;
// their single strict decode also yields the routing fields, so only the
// bodies it refuses are peeked at (and rejected if they are not JSON).
func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request) {
	rt.countRoute("read")
	body, err := readAllPooled(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "reading request body: "+err.Error())
		return
	}
	if r.URL.Path == "/api/v1/select" {
		if sel, ok := edgeSelectKey(body); ok {
			rt.serveEdge(w, r, &sel, body)
			return
		}
	}
	var peek struct {
		Category  string `json:"category"`
		TimeoutMS int    `json:"timeout_ms"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return
	}
	rt.forwardRead(w, r, peek.Category, body, peek.TimeoutMS, nil)
}

// serveEdge answers a cacheable select at the edge: warm hits are written
// straight from the response cache in microseconds, and a miss is a plain
// forward whose canonical 200 is memoized under its instance's state token.
// Identical concurrent misses coalesce in the worker's select flight group,
// which every forwarded read passes through.
func (rt *Router) serveEdge(w http.ResponseWriter, r *http.Request, sel *edgeSelect, body []byte) {
	payload, seq, ok := rt.edge.get(sel)
	if ok {
		span := obs.StartStage(obs.StageRouterEdge)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write(payload); err != nil {
			rt.countClientAbort("edge")
		}
		span.Stop()
		return
	}
	rt.forwardRead(w, r, sel.category, body, sel.timeoutMS, func(resp *fwdResp) {
		// The worker's instance header is the cacheability statement: it
		// rides only on canonical answers.
		if resp.status == http.StatusOK && resp.instance != "" {
			rt.edge.fill(sel, seq, resp.instance, resp.body)
		}
	})
}

// handleTargets routes the idempotent targets listing by its category query
// parameter through the same retry machinery (with no body).
func (rt *Router) handleTargets(w http.ResponseWriter, r *http.Request) {
	rt.countRoute("targets")
	rt.forwardRead(w, r, r.URL.Query().Get("category"), nil, 0, nil)
}

// forwardRead runs the resilient proxy engine against the client's request
// and replays its outcome. fill, when non-nil, sees the answer before it is
// replayed, so an edge fill is in place before the client can read again.
func (rt *Router) forwardRead(w http.ResponseWriter, r *http.Request, category string, body []byte, timeoutMS int, fill func(*fwdResp)) {
	span := obs.StartStage(obs.StageRouterForward)
	defer span.Stop()

	budgetDur := rt.tun.defaultTimeout
	if timeoutMS > 0 {
		budgetDur = time.Duration(timeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), budgetDur)
	defer cancel()

	resp, err := rt.proxyRead(ctx, r, category, body, timeoutMS)
	if err != nil {
		if errors.Is(err, faultinject.ErrConnDrop) {
			// Injected router crash: tear the client connection down
			// mid-request instead of answering.
			abortConn(w)
			return
		}
		writeErr(w, 499, "client_closed", "client closed request")
		return
	}
	if fill != nil {
		fill(resp)
	}
	rt.writeFwd(w, resp)
}

// proxyRead is the resilient idempotent-read engine: health-ordered
// candidates, breaker gating, budgeted retries with jittered backoff, and
// deadline propagation. Attempts run one at a time, so a read never has
// more than one upstream exchange in flight, and each attempt's breaker
// slot is settled where the attempt ends. Every deterministic outcome — an
// upstream answer or a router-originated 502/503/504 envelope — comes back
// as a replayable *fwdResp. An error means nothing is replayable: the
// client went away, or an injected fault wants the connection torn down.
// ctx is r's context bounded by the read's deadline; when ctx fires, r's
// own context tells client abandonment from deadline exhaustion.
func (rt *Router) proxyRead(ctx context.Context, r *http.Request, category string, body []byte, timeoutMS int) (*fwdResp, error) {
	deadline, _ := ctx.Deadline()
	method, pathAndQuery, contentType := r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type")
	cands := rt.readCandidates(category)
	if len(cands) == 0 {
		return errResp(http.StatusServiceUnavailable, "overloaded", "no replicas for category "+category), nil
	}

	// attemptBody rewrites timeout_ms to the remaining deadline budget so an
	// upstream never works past what the client will wait for.
	attemptBody := func() []byte {
		if body == nil || timeoutMS <= 0 {
			return body
		}
		rem := time.Until(deadline).Milliseconds()
		if rem < 1 {
			rem = 1
		}
		return timeoutMSRe.ReplaceAll(body, []byte(fmt.Sprintf(`"timeout_ms":%d`, rem)))
	}

	// pick claims the next candidate whose breaker admits a request,
	// walking the list round-robin from where the previous attempt left off.
	next := 0
	pick := func() (string, bool) {
		for tries := 0; tries < len(cands); tries++ {
			addr := cands[next%len(cands)]
			next++
			if rt.breakers[addr].Allow() {
				return addr, true
			}
		}
		return "", false
	}

	// expired answers a read whose ctx fired: nothing to replay when the
	// client left, a 504 when the deadline ran out.
	expired := func() (*fwdResp, error) {
		if err := r.Context().Err(); err != nil {
			return nil, err
		}
		return errResp(http.StatusGatewayTimeout, "deadline_exceeded", "deadline exhausted routing to "+category), nil
	}

	var lastFail *fwdResp
	var lastErr error
	for attempt := 0; attempt <= rt.tun.maxRetries; attempt++ {
		if attempt > 0 {
			if !rt.budget.Withdraw() {
				break
			}
			if !sleepCtx(ctx, rt.jitterDelay(attempt)) {
				rt.budget.Refund()
				return expired()
			}
		}
		addr, ok := pick()
		if !ok {
			if attempt == 0 {
				return errResp(http.StatusServiceUnavailable, "overloaded", "all replicas circuit-broken for category "+category), nil
			}
			// Every candidate breaker refused: no retry load was generated,
			// so the token goes back.
			rt.budget.Refund()
			break
		}
		if attempt > 0 {
			rt.reg.Counter("comparesets_router_retries_total",
				"Budgeted read retries after transport errors or 5xx.", nil).Inc()
		}
		resp, err := rt.doAttempt(ctx, addr, method, pathAndQuery, attemptBody(), contentType)
		b := rt.breakers[addr]
		switch {
		case err != nil && (ctx.Err() != nil || errors.Is(err, faultinject.ErrConnDrop)):
			// The read ran out of time or client, or an injected fault tears
			// the connection down: no verdict on the backend, so the
			// Allow-claimed slot (a half-open probe, possibly) is released
			// without recording.
			b.Release()
			rt.countForward(addr, "abandoned")
			if errors.Is(err, faultinject.ErrConnDrop) {
				return nil, err
			}
			return expired()
		case err != nil:
			b.Record(false)
			rt.countForward(addr, "error")
			if !errors.Is(err, context.Canceled) &&
				!errors.Is(err, context.DeadlineExceeded) &&
				!errors.Is(err, faultinject.ErrInjected) {
				rt.health.MarkUnreachable(addr)
			}
			lastErr = err
		case resp.status >= 500:
			b.Record(false)
			rt.countForward(addr, "error")
			lastFail = resp
		default:
			// 2xx–4xx: a deterministic answer. Forward verbatim.
			b.Record(true)
			rt.budget.Deposit()
			rt.countForward(addr, "ok")
			return resp, nil
		}
	}
	if lastFail != nil {
		return lastFail, nil
	}
	return errResp(http.StatusBadGateway, "internal", "all replicas failed: "+lastErr.Error()), nil
}

// --- write path -------------------------------------------------------------

// receiptIdentity extracts the comparable part of a mutation receipt: the
// corpus-fingerprint suffix of the epoch token (the epochSeq prefix is
// per-process and expected to differ across replicas) and the per-item
// mutation generation.
func receiptIdentity(body []byte) (fingerprint string, generation uint64, ok bool) {
	var rec struct {
		Epoch      string `json:"epoch"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		return "", 0, false
	}
	if i := strings.LastIndexByte(rec.Epoch, '.'); i >= 0 {
		return rec.Epoch[i+1:], rec.Generation, true
	}
	return rec.Epoch, rec.Generation, rec.Epoch != ""
}

// handleMutation fans a review mutation out to every replica of the shard
// and reconciles their receipts. Mutations are never retried — a replayed
// append would duplicate a review — so a replica that misses the write is
// marked divergent instead.
func (rt *Router) handleMutation(w http.ResponseWriter, r *http.Request) {
	rt.countRoute("mutate")
	category := r.PathValue("category")
	body, err := readAllPooled(io.LimitReader(r.Body, 8<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "reading request body: "+err.Error())
		return
	}

	// Serialize writes per category: every replica then observes mutations
	// in identical order, which is what makes their states — and their
	// selection bytes — converge.
	lock := rt.catLock(category)
	lock.Lock()
	defer lock.Unlock()

	ctx, cancel := context.WithTimeout(r.Context(), rt.tun.defaultTimeout)
	defer cancel()

	if err := faultinject.CheckCtx(ctx, faultinject.PointRouterForward); err != nil {
		if errors.Is(err, faultinject.ErrConnDrop) {
			abortConn(w)
			return
		}
		writeErr(w, http.StatusBadGateway, "internal", "injected fault: "+err.Error())
		return
	}

	placement := rt.ring.Placement(category)
	type mutRes struct {
		addr string
		resp *fwdResp
		err  error
	}
	results := make([]mutRes, len(placement))
	var wg sync.WaitGroup
	for i, addr := range placement {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			resp, err := rt.doAttempt(ctx, addr, r.Method, r.URL.RequestURI(), body, r.Header.Get("Content-Type"))
			results[i] = mutRes{addr, resp, err}
		}(i, addr)
	}
	wg.Wait()

	var ref *mutRes
	for i := range results {
		if results[i].err == nil && results[i].resp.status >= 200 && results[i].resp.status < 300 {
			ref = &results[i]
			break
		}
	}

	if ref == nil {
		// No replica accepted the write. A unanimous 4xx is a deterministic
		// rejection (unknown category, bad payload): forward it verbatim and
		// mark nothing divergent. Anything else is a routing-tier failure.
		unanimous := true
		var proto *fwdResp
		for i := range results {
			res := &results[i]
			if res.err != nil || res.resp.status >= 500 {
				unanimous = false
				if res.err != nil && !errors.Is(res.err, context.Canceled) && !errors.Is(res.err, context.DeadlineExceeded) {
					rt.health.MarkUnreachable(res.addr)
				}
				continue
			}
			if proto == nil {
				proto = res.resp
			} else if proto.status != res.resp.status {
				unanimous = false
			}
		}
		rt.countMutation("error")
		if unanimous && proto != nil {
			// A unanimous deterministic rejection changed no replica's state;
			// the edge cache stays intact.
			rt.writeFwd(w, proto)
			return
		}
		// Some replica may have partially applied the write before failing;
		// the edge cannot tell, so the whole category is flushed.
		rt.edge.flush(category)
		writeErr(w, http.StatusBadGateway, "internal", "mutation failed on all replicas of "+category)
		return
	}

	refFP, refGen, refOK := receiptIdentity(ref.resp.body)
	outcome := "ok"
	refConfirmed := false
	for i := range results {
		res := &results[i]
		if res == ref {
			continue
		}
		switch {
		case res.err != nil:
			rt.markDivergent(res.addr, category, "write failed: "+res.err.Error())
			if !errors.Is(res.err, context.Canceled) && !errors.Is(res.err, context.DeadlineExceeded) {
				rt.health.MarkUnreachable(res.addr)
			}
			outcome = "divergent"
		case res.resp.status != ref.resp.status:
			rt.markDivergent(res.addr, category, fmt.Sprintf("status %d, quorum %d", res.resp.status, ref.resp.status))
			outcome = "divergent"
		default:
			fp, gen, ok := receiptIdentity(res.resp.body)
			switch {
			case refOK && ok && (fp != refFP || gen != refGen):
				rt.markDivergent(res.addr, category,
					fmt.Sprintf("receipt %s/gen %d, quorum %s/gen %d", fp, gen, refFP, refGen))
				outcome = "divergent"
			case refOK && ok:
				// Matching receipts are proof of convergence: a replica that
				// restarted and rebuilt through the snapshot join rejoins
				// this category's reads here.
				refConfirmed = true
				rt.clearDivergent(res.addr, category)
			}
		}
	}
	if refConfirmed {
		// At least one peer independently produced the same receipt, so the
		// reference replica's own state is quorum-confirmed too.
		rt.clearDivergent(ref.addr, category)
	}
	// Advance the edge cache's view of the category before the client sees
	// the mutation's receipt — still inside the category lock, so a read
	// admitted after this response can never replay pre-mutation bytes.
	rt.edge.applyReceipt(category, ref.resp.body)
	rt.countMutation(outcome)
	rt.writeFwd(w, ref.resp)
}

func (rt *Router) countMutation(outcome string) {
	rt.reg.Counter("comparesets_router_mutations_total",
		"Fanned-out mutations by reconciliation outcome.",
		obs.Labels{"outcome": outcome}).Inc()
}

// --- fan-out reads and ops --------------------------------------------------

// liveBackends returns backends that are reachable and not circuit-broken.
func (rt *Router) liveBackends() []string {
	states := rt.health.States()
	var out []string
	for _, addr := range rt.ring.Backends() {
		if states[addr] != HealthUnreachable && rt.breakers[addr].State() != BreakerOpen {
			out = append(out, addr)
		}
	}
	return out
}

// handleCategories merges the category listings of every live backend.
// Replicated categories appear on several backends with identical stats;
// the first answer wins.
func (rt *Router) handleCategories(w http.ResponseWriter, r *http.Request) {
	rt.countRoute("categories")
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	backends := rt.liveBackends()
	if len(backends) == 0 {
		backends = rt.ring.Backends()
	}
	type row = json.RawMessage
	merged := map[string]row{}
	okCount := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, addr := range backends {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			resp, err := rt.doAttempt(ctx, addr, http.MethodGet, "/api/v1/categories", nil, "")
			if err != nil || resp.status != http.StatusOK {
				return
			}
			var rows []map[string]json.RawMessage
			if err := json.Unmarshal(resp.body, &rows); err != nil {
				return
			}
			mu.Lock()
			okCount++
			for _, raw := range rows {
				var name string
				if err := json.Unmarshal(raw["name"], &name); err == nil {
					if _, seen := merged[name]; !seen {
						enc, _ := json.Marshal(raw)
						merged[name] = enc
					}
				}
			}
			mu.Unlock()
		}(addr)
	}
	wg.Wait()
	if okCount == 0 {
		writeErr(w, http.StatusServiceUnavailable, "overloaded", "no backend answered the categories listing")
		return
	}
	names := make([]string, 0, len(merged))
	for n := range merged {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]json.RawMessage, 0, len(names))
	for _, n := range names {
		out = append(out, merged[n])
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleSnapshotProxy streams a category snapshot from a live owning
// replica — so a joining worker can bootstrap through the router without
// knowing the placement. Torn streams are not retried here: the snapshot
// protocol's record-count check makes the *joiner* retry safely.
func (rt *Router) handleSnapshotProxy(w http.ResponseWriter, r *http.Request) {
	rt.countRoute("snapshot")
	category := r.PathValue("category")
	if err := faultinject.CheckCtx(r.Context(), faultinject.PointRouterSnapshot); err != nil {
		if errors.Is(err, faultinject.ErrConnDrop) {
			abortConn(w)
			return
		}
		writeErr(w, http.StatusBadGateway, "internal", "injected fault: "+err.Error())
		return
	}
	states := rt.health.States()
	var lastErr error
	for _, addr := range rt.readCandidates(category) {
		if states[addr] == HealthUnreachable {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, addr+r.URL.RequestURI(), nil)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			lastErr = err
			rt.health.MarkUnreachable(addr)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			// Drain so the pooled connection is reusable; a torn drain only
			// costs this one connection, but should not pass silently.
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				rt.logger.Printf("router: snapshot proxy: draining %s error body: %v", addr, err)
			}
			resp.Body.Close()
			lastErr = fmt.Errorf("backend %s: status %d", addr, resp.StatusCode)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		if cl := resp.Header.Get("Content-Length"); cl != "" {
			w.Header().Set("Content-Length", cl)
		}
		w.WriteHeader(http.StatusOK)
		if _, err := io.Copy(w, resp.Body); err != nil {
			// Distinguish the joiner hanging up (499-style, accounted) from a
			// torn upstream stream (the joiner's record-count check makes it
			// retry safely; log for the operator).
			if r.Context().Err() != nil {
				rt.countClientAbort("snapshot")
			} else {
				rt.logger.Printf("router: snapshot proxy: stream from %s torn: %v", addr, err)
			}
		}
		resp.Body.Close()
		return
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no live replica for %q", category)
	}
	writeErr(w, http.StatusBadGateway, "internal", "snapshot proxy: "+lastErr.Error())
}

// --- operational endpoints ---------------------------------------------------

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":   "ok",
		"backends": len(rt.breakers),
	})
}

// handleReadyz reports the cluster view: per-backend health and breaker
// state, the retry budget, and — when the category list is obtainable —
// which categories currently have no live replica. Unroutable categories or
// a fully dead backend set answer 503.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	states := rt.health.States()
	type backendView struct {
		Health  string `json:"health"`
		Breaker string `json:"breaker"`
	}
	views := map[string]backendView{}
	liveCount := 0
	allOK := true
	for _, addr := range rt.ring.Backends() {
		bs := rt.breakers[addr].State()
		views[addr] = backendView{Health: states[addr], Breaker: bs.String()}
		live := states[addr] != HealthUnreachable && bs != BreakerOpen
		if live {
			liveCount++
		}
		if states[addr] != HealthOK || bs != BreakerClosed {
			allOK = false
		}
	}

	var unroutable []string
	for _, cat := range rt.probeCategories(r.Context()) {
		routable := false
		for _, addr := range rt.ring.Placement(cat) {
			if states[addr] != HealthUnreachable &&
				rt.breakers[addr].State() != BreakerOpen &&
				!rt.isDivergent(addr, cat) {
				routable = true
				break
			}
		}
		if !routable {
			unroutable = append(unroutable, cat)
		}
	}

	status := "ok"
	code := http.StatusOK
	switch {
	case liveCount == 0 || len(unroutable) > 0:
		status = "unavailable"
		code = http.StatusServiceUnavailable
	case !allOK:
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":       status,
		"backends":     views,
		"retry_budget": rt.budget.Remaining(),
		"unroutable":   unroutable,
	})
}

// probeCategories best-effort fetches the category list from any live
// backend (for the readiness view); an empty answer is acceptable.
func (rt *Router) probeCategories(ctx context.Context) []string {
	ctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	for _, addr := range rt.liveBackends() {
		resp, err := rt.doAttempt(ctx, addr, http.MethodGet, "/api/v1/categories", nil, "")
		if err != nil || resp.status != http.StatusOK {
			continue
		}
		var rows []struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(resp.body, &rows); err != nil {
			continue
		}
		out := make([]string, 0, len(rows))
		for _, row := range rows {
			out = append(out, row.Name)
		}
		return out
	}
	return nil
}
