// Package service exposes comparative review selection as an HTTP JSON API
// — the shape a storefront backend would deploy: load (or synthesize)
// corpora at startup, then answer per-target selection and shortlist
// queries, which are independent and served concurrently (§4.1.1).
//
// Endpoints:
//
//	GET  /healthz                     liveness probe
//	GET  /readyz                      readiness probe (ok|degraded|overloaded)
//	GET  /api/v1/categories           loaded corpus names + stats
//	GET  /api/v1/targets?category=X   qualifying target product IDs
//	POST /api/v1/select               select review sets (+ optional shortlist)
//	POST /api/v1/extract              aspect-sentiment extraction for raw text
//	GET  /metrics                     Prometheus text exposition
//	GET  /debug/vars                  expvar JSON
//	GET  /debug/pprof/*               runtime profiles
//
//	POST   /api/v1/corpora/{category}/items/{item}/reviews            append reviews
//	PATCH  /api/v1/corpora/{category}/items/{item}/reviews/{review}   replace a review
//	DELETE /api/v1/corpora/{category}/items/{item}/reviews/{review}   remove a review
//
// Every corpus-referenced select takes one path through a three-layer
// accelerator sized for hot-key traffic: corpus-resident precomputed review
// features (internal/featstore), a sharded byte-budgeted LRU over fully
// marshaled responses keyed by the canonical request key and tagged with
// the instance's epoch (internal/servecache), and request coalescing so N
// concurrent identical requests run the pipeline once. That flight group
// is the only coalescing layer of the serving path: a router forwards its
// edge-cache misses as they come, so identical routed misses meet here.
// Inline instances have no corpus identity to key on and run the pipeline
// directly. The shortlist similarity graph is not memoized; an instance's
// graph is small enough that simgraph.Build per request costs
// microseconds. Replacing a corpus with AddCorpus bumps its epoch, so its
// cached results stop answering atomically; each stays reachable as the
// stale-while-error copy for its request shape until a refill replaces it.
//
// The mutation endpoints are the incremental write path: each applies one
// typed delta (append/update/remove a review) copy-on-write, refills only
// the touched item's feature columns, drops only its regression
// templates, and re-keys only cached selections whose instance contains the
// item (per-item generations folded into the cache key). Each returns a
// MutationReceipt quantifying that invalidation. See mutate.go. Every
// canonical corpus-referenced select answer names its instance's members in
// the Comparesets-Instance header (selectreq.InstanceHeader), so a cache in
// front of the worker learns that it may memoize the answer and applies the
// same per-instance invalidation scope.
//
// Errors are returned as a structured envelope
// {"error":{"code":"...","message":"...","field":"..."}} with 400 for
// malformed requests, 404 for unknown resources, 422 for semantically
// invalid parameters (field names the offending request field), and 504
// when a request exceeds its timeout_ms deadline.
// Every API endpoint is wrapped in middleware that records request counts,
// status codes, and latency histograms into the internal/obs registry
// served at GET /metrics.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"maps"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"comparesets/internal/aspectex"
	"comparesets/internal/core"
	"comparesets/internal/dataset"
	"comparesets/internal/explain"
	"comparesets/internal/faultinject"
	"comparesets/internal/featstore"
	"comparesets/internal/lexicon"
	"comparesets/internal/metrics"
	"comparesets/internal/model"
	"comparesets/internal/obs"
	"comparesets/internal/selectreq"
	"comparesets/internal/servecache"
	"comparesets/internal/simgraph"
	"comparesets/internal/store"
	"comparesets/internal/summarize"
)

// DefaultCacheBytes is the select result cache budget when Options leaves
// CacheBytes unset.
const DefaultCacheBytes int64 = 64 << 20

// Options tunes the serving accelerators.
type Options struct {
	// CacheBytes is the byte budget of the select result cache; ≤ 0 uses
	// DefaultCacheBytes.
	CacheBytes int64
	// MaxInflight bounds concurrently executing select requests; excess
	// requests wait in a queue of up to 4×MaxInflight and are shed with
	// 503 + Retry-After when the queue is full or the expected wait exceeds
	// their deadline. ≤ 0 disables admission control.
	MaxInflight int
	// StoreProbe, when set, is consulted by /readyz: a non-nil error marks
	// the backing review store unhealthy and the server degraded.
	StoreProbe func() error
	// BatchWindow has no effect: request batching is gone, and every
	// corpus select runs cache → flight → pipeline on its own.
	//
	// Deprecated: NewWithOptions ignores it. It stays only until perfbench
	// stops reading it to report the batch layer as off.
	BatchWindow time.Duration
	// Float32 has no effect: selections run over the feature store's
	// float64 sparse review runs, the one feature representation.
	//
	// Deprecated: NewWithOptions ignores it. It stays only until perfbench
	// stops reading it to report the float32 layer as off.
	Float32 bool
	// MutationLog, when set, makes corpus mutations durable: every
	// successful mutation endpoint call appends a typed record to this CSLG
	// store before the in-memory corpus swap (write-ahead ordering), so a
	// restart can replay the post-mutation state. The store must hold the
	// mutated corpora's reviews (e.g. via store.AppendCorpus at load time);
	// nil keeps mutations in-memory only.
	MutationLog *store.Store
}

// Server serves the selection API over a set of loaded corpora.
type Server struct {
	mu      sync.RWMutex
	corpora map[string]*model.Corpus
	// feats holds each corpus's resident precomputed features; epochs
	// holds the cache-key epoch token bumped whenever AddCorpus replaces a
	// corpus, which atomically invalidates all of its cached results.
	// The feature store also holds each item's regression templates, so
	// they never outlive their corpus generation.
	feats  map[string]*featstore.Store
	epochs map[string]string
	// gens tracks per-item mutation generations within the current corpus
	// epoch: gens[category][itemID] counts mutations of that item since the
	// corpus was (re)loaded. The select cache key folds in the generations
	// of exactly the instance's members, so a mutation invalidates only
	// cached selections whose instance contains the touched item —
	// everything else stays warm. AddCorpus resets the map: the epoch bump
	// already invalidates the whole category.
	gens     map[string]map[string]uint64
	epochSeq uint64
	started  time.Time
	logger   *log.Logger
	reg      *obs.Registry
	// cache holds one select payload per request key, tagged with the
	// instance epoch it was computed under: a Get under the current epoch
	// is a hit, and on a pipeline failure the entry serves as the
	// stale-while-error copy whatever its epoch.
	cache   *servecache.Cache
	flights *servecache.FlightGroup
	// limiter is nil unless Options.MaxInflight > 0.
	limiter    *limiter
	storeProbe func() error
	draining   atomic.Bool
	// mutlog is Options.MutationLog (nil = mutations are in-memory only).
	mutlog *store.Store

	clientAborts *obs.Counter
	staleServed  *obs.Counter
	flightPanics *obs.Counter
	// encodeBytes counts the response bytes encodeJSON produces (writeJSON
	// and select flight fills). Cached payloads are counted once, at fill
	// time, not per serve.
	encodeBytes *obs.Counter
}

// New creates a server over the given corpora (keyed by category name)
// with default options, recording metrics into the process-wide
// obs.Default registry so that /metrics also exposes the selection
// pipeline's stage timers.
func New(corpora map[string]*model.Corpus, logger *log.Logger) *Server {
	return NewWithOptions(corpora, logger, Options{})
}

// NewWithOptions is New with explicit serving-accelerator options.
func NewWithOptions(corpora map[string]*model.Corpus, logger *log.Logger, opts Options) *Server {
	if logger == nil {
		logger = log.Default()
	}
	s := &Server{
		corpora: map[string]*model.Corpus{},
		feats:   map[string]*featstore.Store{},
		epochs:  map[string]string{},
		gens:    map[string]map[string]uint64{},
		started: time.Now(),
		logger:  logger,
		reg:     obs.Default(),
		mutlog:  opts.MutationLog,
	}
	s.clientAborts = s.reg.Counter("comparesets_client_aborts_total",
		"Responses whose write failed because the client disconnected.", nil)
	s.staleServed = s.reg.Counter("comparesets_degraded_responses_total",
		"Stale-while-error responses served from the last good cached result.",
		obs.Labels{"reason": "stale_cache"})
	s.flightPanics = s.reg.Counter("comparesets_http_panics_total",
		"Handler panics recovered by the middleware.", obs.Labels{"endpoint": "select.flight"})
	s.encodeBytes = s.reg.Counter("comparesets_encode_bytes_total",
		"Response JSON bytes produced by the response encoder.", nil)
	s.storeProbe = opts.StoreProbe
	if opts.MaxInflight > 0 {
		s.limiter = newLimiter(opts.MaxInflight, s.reg)
	}
	bytes := opts.CacheBytes
	if bytes <= 0 {
		bytes = DefaultCacheBytes
	}
	s.cache = servecache.New(bytes, 0, obs.NewCacheMetrics(s.reg, "servecache"))
	s.flights = servecache.NewFlightGroup(obs.NewCacheMetrics(s.reg, "selectflight"))
	for name, c := range corpora {
		s.registerCorpus(name, c)
	}
	return s
}

// Registry returns the metrics registry the server records into.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Corpus returns the live corpus registered under name. The returned corpus
// is the server's current copy-on-write snapshot: mutations replace it
// rather than modify it, so callers may read it without locking. The
// snapshot-shipping handler uses this to stream a consistent view to
// joining replicas.
func (s *Server) Corpus(name string) (*model.Corpus, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.corpora[name]
	return c, ok
}

// Categories returns the loaded category names in sorted order.
func (s *Server) Categories() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.corpora))
	for name := range s.corpora {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AddCorpus registers (or replaces) a corpus at runtime. The category's
// cache epoch is bumped, so no cached result or precomputed feature of a
// replaced corpus is served again, in one atomic step.
func (s *Server) AddCorpus(name string, c *model.Corpus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registerCorpus(name, c)
}

// registerCorpus installs the corpus, its feature store, and its epoch
// token. Caller holds s.mu (or the server is not yet shared).
func (s *Server) registerCorpus(name string, c *model.Corpus) {
	_, replacing := s.corpora[name]
	s.epochSeq++
	s.corpora[name] = c
	if old := s.feats[name]; old != nil {
		old.Release()
	}
	s.feats[name] = featstore.New(c)
	s.epochs[name] = fmt.Sprintf("%d.%016x", s.epochSeq, c.Fingerprint())
	// A corpus (re)load is an epoch-scope invalidation: the epoch token in
	// every cache key changes and per-item generations start over.
	s.gens[name] = map[string]uint64{}
	if replacing {
		s.reg.Counter("comparesets_invalidations_total",
			"Cache invalidations by scope: item (mutation) or epoch (corpus replace).",
			obs.Labels{"scope": "epoch"}).Inc()
	}
}

// Handler returns the HTTP handler with all API and operational routes
// mounted. Every /api and /healthz route is instrumented.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealth))
	mux.Handle("GET /readyz", s.instrument("readyz", s.handleReady))
	mux.Handle("GET /api/v1/categories", s.instrument("categories", s.handleCategories))
	mux.Handle("GET /api/v1/targets", s.instrument("targets", s.handleTargets))
	mux.Handle("POST /api/v1/select", s.instrument("select", s.handleSelect))
	mux.Handle("POST /api/v1/extract", s.instrument("extract", s.handleExtract))
	// Mutation endpoints deliberately bypass the select admission limiter:
	// writes are cheap (one item's refill), and shedding them under read
	// load would let a busy cache starve corpus freshness.
	mux.Handle("POST /api/v1/corpora/{category}/items/{item}/reviews",
		s.instrument("mutate", s.handleAppendReviews))
	mux.Handle("PATCH /api/v1/corpora/{category}/items/{item}/reviews/{review}",
		s.instrument("mutate", s.handleUpdateReview))
	mux.Handle("DELETE /api/v1/corpora/{category}/items/{item}/reviews/{review}",
		s.instrument("mutate", s.handleRemoveReview))
	obs.RegisterOps(mux, s.reg)
	return mux
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.started).String(),
	})
}

// Readiness states reported by /readyz.
const (
	// ReadyOK: serving normally.
	ReadyOK = "ok"
	// ReadyDegraded: serving, but impaired — the backing store probe
	// fails, or no corpora are loaded (the latter also answers 503 so load
	// balancers route elsewhere).
	ReadyDegraded = "degraded"
	// ReadyOverloaded: not accepting more load — the admission queue is
	// saturated or the server is draining for shutdown (503 + Retry-After).
	ReadyOverloaded = "overloaded"
)

// SetDraining flips the drain flag consulted by /readyz. Flip it before
// http.Server.Shutdown so load balancers stop routing new traffic while
// in-flight requests finish.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Readiness evaluates the readiness state machine: overloaded (draining or
// admission queue saturated) takes precedence over degraded (store
// unhealthy, or no corpora loaded), else ok. The checks map explains every
// contributing probe.
func (s *Server) Readiness() (state string, checks map[string]string) {
	s.mu.RLock()
	ncorpora := len(s.corpora)
	s.mu.RUnlock()
	state = ReadyOK
	checks = map[string]string{}

	checks["corpora"] = fmt.Sprintf("%d loaded", ncorpora)
	if ncorpora == 0 {
		checks["corpora"] = "none loaded"
		state = ReadyDegraded
	}
	checks["store"] = "unconfigured"
	if s.storeProbe != nil {
		if err := s.storeProbe(); err != nil {
			checks["store"] = err.Error()
			state = ReadyDegraded
		} else {
			checks["store"] = "ok"
		}
	}
	checks["limiter"] = "disabled"
	if s.limiter != nil {
		checks["limiter"] = s.limiter.state()
		if s.limiter.saturated() {
			state = ReadyOverloaded
		}
	}
	checks["draining"] = "false"
	if s.draining.Load() {
		checks["draining"] = "true"
		state = ReadyOverloaded
	}
	return state, checks
}

// handleReady serves the readiness probe: 200 for ok, 200 for degraded
// (the server still answers what it can), 503 for overloaded or for a
// degraded server with nothing loaded at all.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	state, checks := s.Readiness()
	status := http.StatusOK
	if state == ReadyOverloaded || checks["corpora"] == "none loaded" {
		status = http.StatusServiceUnavailable
	}
	if state == ReadyOverloaded {
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, status, map[string]any{"status": state, "checks": checks})
}

// CategoryInfo is one row of the categories listing.
type CategoryInfo struct {
	Name     string `json:"name"`
	Products int    `json:"products"`
	Reviews  int    `json:"reviews"`
	Targets  int    `json:"targets"`
}

func (s *Server) handleCategories(w http.ResponseWriter, _ *http.Request) {
	// Corpora are copy-on-write snapshots, so the statistics are computed
	// outside the lock: a writer waiting for it must not hold every select
	// behind a scan of all corpora.
	s.mu.RLock()
	corpora := maps.Clone(s.corpora)
	s.mu.RUnlock()
	var out []CategoryInfo
	for name, c := range corpora {
		st := dataset.Compute(c)
		out = append(out, CategoryInfo{
			Name: name, Products: st.Products, Reviews: st.Reviews, Targets: st.TargetProducts,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTargets(w http.ResponseWriter, r *http.Request) {
	category := r.URL.Query().Get("category")
	s.mu.RLock()
	c, ok := s.corpora[category]
	s.mu.RUnlock()
	if !ok {
		s.writeAPIError(w, notFound("unknown category %q", category))
		return
	}
	s.writeJSON(w, http.StatusOK, dataset.TargetIDs(c))
}

// SelectRequest is the /api/v1/select request body, shared with the
// routing tier through internal/selectreq.
type SelectRequest = selectreq.Request

// SelectedReview is one chosen review in the response.
type SelectedReview struct {
	ID     string `json:"id"`
	Rating int    `json:"rating"`
	Text   string `json:"text"`
}

// SelectedItem is one item with its selected reviews.
type SelectedItem struct {
	ID       string           `json:"id"`
	Title    string           `json:"title"`
	IsTarget bool             `json:"is_target"`
	Reviews  []SelectedReview `json:"reviews"`
	// Summary holds extracted summary sentences when requested.
	Summary []string `json:"summary,omitempty"`
}

// SelectResponse is the /api/v1/select response body.
type SelectResponse struct {
	Algorithm string         `json:"algorithm"`
	Objective float64        `json:"objective"`
	Items     []SelectedItem `json:"items"`
	// Shortlist holds instance positions when K > 0.
	Shortlist       []int   `json:"shortlist,omitempty"`
	ShortlistWeight float64 `json:"shortlist_weight,omitempty"`
	// Optimal is present (and false) only when the exact shortlist solver
	// was shed — by its time budget, the request deadline, or server
	// overload — and a greedy/best-so-far result is served instead.
	// Optimal exact solves and non-exact methods omit it.
	Optimal *bool `json:"optimal,omitempty"`
	// Degraded marks a stale-while-error response: the pipeline failed and
	// this payload is the last good (possibly previous-epoch) cached
	// result for the same request shape.
	Degraded bool `json:"degraded,omitempty"`
	// Explanations holds comparative explanation lines when requested.
	Explanations []string `json:"explanations,omitempty"`
	// Metrics holds the §5.1 quality scores when requested.
	Metrics   *metrics.InstanceMetrics `json:"metrics,omitempty"`
	ElapsedMS float64                  `json:"elapsed_ms"`
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	// Admission control first: a request we cannot serve in time should
	// cost one queue probe, not a decoded body and a pipeline slot.
	if s.limiter != nil {
		release, aerr := s.limiter.acquire(r.Context())
		if aerr != nil {
			s.writeAPIError(w, aerr)
			return
		}
		defer release()
	}
	var req SelectRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeAPIError(w, badRequest("decoding request: %v", err))
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	// Canonicalize and validate the request-shaping parameters up front:
	// they are part of the cache key, and invalid requests must never
	// occupy a flight. Validation failures name the offending field in the
	// error envelope.
	if ae := validateSelectRequest(&req); ae != nil {
		s.writeAPIError(w, ae)
		return
	}
	selectreq.ApplyDefaults(&req)
	sel, ok := core.SelectorByName(req.Algorithm)
	if !ok {
		s.writeAPIError(w, fieldError("algorithm", "unknown algorithm %q", req.Algorithm))
		return
	}
	var solver simgraph.Solver
	if req.K > 0 {
		var err error
		if solver, err = solverFor(req.Method); err != nil {
			s.writeAPIError(w, fieldError("method", "%v", err))
			return
		}
	}

	// Corpus-referenced requests ride the full accelerator: result cache,
	// then request coalescing, then the precompute-backed pipeline. The
	// instance is resolved up front, inside the same lock snapshot as the
	// epoch and generation reads: the cache tag folds in the mutation
	// generations of exactly the instance's members, so tag and instance
	// must come from one consistent corpus view.
	if req.Category != "" && req.Target != "" {
		s.mu.RLock()
		c, ok := s.corpora[req.Category]
		fs := s.feats[req.Category]
		epoch := s.epochs[req.Category]
		var inst *model.Instance
		var instErr error
		if ok {
			if inst, instErr = c.NewInstance(req.Target, req.MaxComparative); instErr == nil {
				epoch = instanceEpoch(epoch, s.gens[req.Category], inst)
			}
		}
		s.mu.RUnlock()
		if !ok {
			s.writeAPIError(w, notFound("unknown category %q", req.Category))
			return
		}
		if instErr != nil {
			s.writeAPIError(w, notFound("%v", instErr))
			return
		}
		key := selectreq.Key(&req)
		if body, hit := s.cache.Get(key, epoch); hit {
			s.writeAnswer(w, inst, body)
			return
		}
		// The flight key folds the epoch in, so a read admitted after a
		// write never joins a flight computing the pre-write answer.
		body, _, err := s.flights.Do(ctx, key+"|epoch="+epoch, func(fctx context.Context) ([]byte, error) {
			resp, apiErr := s.computeSelect(fctx, &req, inst, fs, sel, solver)
			if apiErr != nil {
				return nil, apiErr
			}
			payload, err := s.encodeJSON(resp)
			if err != nil {
				return nil, internalError(fmt.Errorf("encoding select response: %w", err))
			}
			if !canonical(resp) {
				// Every waiter learns the verdict with the bytes.
				return nil, &nonCanonical{payload: payload}
			}
			s.cache.Put(key, epoch, payload)
			return payload, nil
		})
		var nc *nonCanonical
		switch {
		case err == nil:
			s.writeAnswer(w, inst, body)
		case errors.As(err, &nc):
			s.writeRawJSON(w, nc.payload)
		default:
			ae := asAPIError(err)
			if ae.code == CodeInternal {
				// A panicking flight is a recovered panic too: account for
				// it like the middleware does for direct handlers.
				var pe *servecache.PanicError
				if errors.As(err, &pe) {
					s.flightPanics.Inc()
					s.logger.Printf("panic in select flight: %v\n%s", pe.Value, pe.Stack)
				}
				// Stale-while-error: a 5xx pipeline failure on a key we have
				// served before returns the last good payload, flagged. It
				// may predate a corpus replace or a mutation: the entry
				// answers whatever its epoch.
				if stale, ok := s.cache.Stale(key); ok {
					s.staleServed.Inc()
					s.writeRawJSON(w, degradeBody(stale))
					return
				}
			}
			s.writeAPIError(w, ae)
		}
		return
	}

	// Inline instances take the direct path: their items are
	// request-scoped, so there is no corpus identity to key a cache entry
	// on, and caching their features or templates would pin dead instances.
	inst, apiErr := inlineInstance(&req)
	if apiErr != nil {
		s.writeAPIError(w, apiErr)
		return
	}
	resp, apiErr := s.computeSelect(ctx, &req, inst, nil, sel, solver)
	if apiErr != nil {
		s.writeAPIError(w, apiErr)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// canonical is the worker's one cacheability rule: it decides both the
// servecache fill and the instance header. A shed exact solve
// (Optimal=false) is correct but not canonical, and memoizing it at any
// tier would freeze the degradation.
func canonical(resp *SelectResponse) bool { return resp.Optimal == nil }

// nonCanonical carries an answer that must not be memoized through the
// flight group's ([]byte, error) result contract, so every coalesced waiter
// serves the same bytes without the instance header.
type nonCanonical struct{ payload []byte }

func (*nonCanonical) Error() string { return "non-canonical select answer" }

// writeAnswer writes a canonical corpus-referenced select payload, naming
// its instance in the instance header.
func (s *Server) writeAnswer(w http.ResponseWriter, inst *model.Instance, body []byte) {
	w.Header().Set(selectreq.InstanceHeader, selectreq.InstanceValue(inst.Items))
	s.writeRawJSON(w, body)
}

// validateSelectRequest checks the numeric request parameters up front,
// returning a 422 naming the offending field. The core pipeline would
// reject most of these too, but only after occupying a flight — and
// without telling the client which field to fix.
func validateSelectRequest(req *SelectRequest) *apiError {
	if req.M < 1 {
		return fieldError("m", "m must be at least 1, got %d", req.M)
	}
	if req.Lambda < 0 {
		return fieldError("lambda", "lambda must be non-negative, got %g", req.Lambda)
	}
	if req.Mu < 0 {
		return fieldError("mu", "mu must be non-negative, got %g", req.Mu)
	}
	if req.K < 0 {
		return fieldError("k", "k must be non-negative, got %d", req.K)
	}
	if req.MaxComparative < 0 {
		return fieldError("max_comparative", "max_comparative must be non-negative, got %d", req.MaxComparative)
	}
	if req.Summarize < 0 {
		return fieldError("summarize", "summarize must be non-negative, got %d", req.Summarize)
	}
	if req.Explain < 0 {
		return fieldError("explain", "explain must be non-negative, got %d", req.Explain)
	}
	if req.TimeoutMS < 0 {
		return fieldError("timeout_ms", "timeout_ms must be non-negative, got %d", req.TimeoutMS)
	}
	return nil
}

// degradeBody marks a cached select payload as degraded by splicing
// "degraded":true into the (always non-empty) top-level object, keeping
// the rest of the bytes exactly as originally served.
func degradeBody(body []byte) []byte {
	const marker = `"degraded":true,`
	out := make([]byte, 0, len(body)+len(marker))
	out = append(out, '{')
	out = append(out, marker...)
	return append(out, body[1:]...)
}

// computeSelect runs the full selection pipeline for a validated request:
// selection, response assembly, optional summaries/explanations/metrics,
// and the optional shortlist solve. features supplies corpus-resident
// features and regression templates (the corpus's feature store; nil for
// inline instances, whose request-scoped items must not be pinned in a
// cache); solver is non-nil exactly when req.K > 0.
func (s *Server) computeSelect(ctx context.Context, req *SelectRequest, inst *model.Instance, features core.FeatureSource, sel core.Selector, solver simgraph.Solver) (*SelectResponse, *apiError) {
	cfg := core.Config{M: req.M, Lambda: req.Lambda, Mu: req.Mu, Features: features}
	if err := faultinject.CheckCtx(ctx, faultinject.PointServiceSelect); err != nil {
		return nil, asAPIError(err)
	}
	start := time.Now()
	selection, err := sel.SelectContext(ctx, inst, cfg)
	if err != nil {
		return nil, asAPIError(err)
	}
	resp := &SelectResponse{
		Algorithm: sel.Name(),
		Objective: selection.Objective,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	}
	sets := selection.Reviews(inst)
	for i, it := range inst.Items {
		item := SelectedItem{ID: it.ID, Title: it.Title, IsTarget: i == 0}
		for _, rv := range sets[i] {
			item.Reviews = append(item.Reviews, SelectedReview{ID: rv.ID, Rating: rv.Rating, Text: rv.Text})
		}
		if req.Summarize > 0 {
			item.Summary = summarize.Reviews(sets[i], summarize.Options{MaxSentences: req.Summarize})
		}
		resp.Items = append(resp.Items, item)
	}
	if req.Explain > 0 {
		resp.Explanations = explain.Lines(explain.Compare(inst, selection), req.Explain)
	}
	if req.Metrics {
		m := metrics.EvaluateSelection(inst, selection)
		resp.Metrics = &m
	}
	if solver != nil {
		// The selector's own targets: each item was looked up once, above.
		g := simgraph.Build(core.StatsForSets(inst, selection.Targets, cfg, sets), cfg)
		shortlistSpan := obs.StartStage(obs.StageShortlist)
		res, reason := s.solveShortlist(ctx, g, req.K, solver, req.Method)
		shortlistSpan.Stop()
		if err := ctx.Err(); err != nil {
			return nil, asAPIError(err)
		}
		if reason != "" {
			f := false
			resp.Optimal = &f
			s.reg.Counter("comparesets_shortlist_fallback_total",
				"Exact shortlist solves degraded to greedy or best-so-far.",
				obs.Labels{"reason": reason}).Inc()
		}
		resp.Shortlist = res.Members
		resp.ShortlistWeight = res.Weight
	}
	return resp, nil
}

// exactMinHeadroom is the least remaining request deadline worth starting
// an exact branch-and-bound solve with; anything shorter goes straight to
// greedy.
const exactMinHeadroom = 50 * time.Millisecond

// solveShortlist runs the requested shortlist solver, degrading exact
// solves down the ladder when the server cannot afford them: under
// admission-queue pressure ("overload") or with too little deadline left
// ("deadline") it serves greedy instead; an exact solve that exhausts its
// internal budget reports "budget". A non-empty reason means the result is
// feasible but not proven optimal. Non-exact methods never degrade.
//
// Corpus-referenced selects run inside a select flight, on a context
// detached from the caller's deadline (servecache.FlightGroup), so ctx has
// no deadline there: the "deadline" rung applies only to inline requests
// and to direct computeSelect calls.
func (s *Server) solveShortlist(ctx context.Context, g *simgraph.Graph, k int, solver simgraph.Solver, method string) (simgraph.Result, string) {
	if method != "exact" && method != "ilp" {
		return solver.SolveContext(ctx, g, k), ""
	}
	if s.limiter != nil && s.limiter.busy() {
		return simgraph.Greedy{}.SolveContext(ctx, g, k), "overload"
	}
	if d, ok := ctx.Deadline(); ok && time.Until(d) < exactMinHeadroom {
		return simgraph.Greedy{}.SolveContext(ctx, g, k), "deadline"
	}
	res := solver.SolveContext(ctx, g, k)
	if !res.Optimal {
		return res, "budget"
	}
	return res, ""
}

func solverFor(method string) (simgraph.Solver, error) {
	switch method {
	case "exact", "ilp":
		return simgraph.Exact{Budget: 10 * time.Second}, nil
	case "greedy":
		return simgraph.Greedy{}, nil
	case "topk":
		return simgraph.TopK{}, nil
	case "random":
		return simgraph.RandomShortlist{}, nil
	default:
		return nil, fmt.Errorf("unknown shortlist method %q", method)
	}
}

// inlineInstance builds the problem instance of a request that carries
// its items inline rather than a corpus reference.
func inlineInstance(req *SelectRequest) (*model.Instance, *apiError) {
	if len(req.Items) == 0 {
		return nil, badRequest("provide either category+target or inline items")
	}
	if len(req.Aspects) == 0 {
		return nil, unprocessable(fmt.Errorf("inline instances need a non-empty aspects list"))
	}
	inst := &model.Instance{Aspects: model.NewVocabulary(req.Aspects), Items: req.Items}
	if err := inst.Validate(); err != nil {
		return nil, unprocessable(err)
	}
	return inst, nil
}

// ExtractRequest is the /api/v1/extract request body.
type ExtractRequest struct {
	Category string `json:"category"`
	Text     string `json:"text"`
}

// ExtractResponse is the /api/v1/extract response body.
type ExtractResponse struct {
	Mentions []MentionJSON `json:"mentions"`
}

// MentionJSON is one extracted mention with a resolved aspect name.
type MentionJSON struct {
	Aspect   int     `json:"aspect"`
	Name     string  `json:"name"`
	Polarity string  `json:"polarity"`
	Score    float64 `json:"score"`
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	var req ExtractRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeAPIError(w, badRequest("decoding request: %v", err))
		return
	}
	cat, ok := lexicon.CategoryByName(req.Category)
	if !ok {
		s.writeAPIError(w, notFound("unknown category %q", req.Category))
		return
	}
	var resp ExtractResponse
	for _, m := range aspectex.New(cat).Extract(req.Text) {
		resp.Mentions = append(resp.Mentions, MentionJSON{
			Aspect:   m.Aspect,
			Name:     cat.Aspects[m.Aspect].Name,
			Polarity: m.Polarity.String(),
			Score:    m.Score,
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// encodeJSON renders v as a response body: json.Marshal plus the trailing
// newline json.Encoder framing adds, so a cached select payload and a
// freshly written response are byte-identical. A value json.Marshal
// rejects (a NaN or infinite float) returns the error and counts nothing.
func (s *Server) encodeJSON(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	s.encodeBytes.Add(len(body))
	return body, nil
}

// writeJSON writes v as the response in one Write; a failed write is
// accounted as a client abort. A value that does not encode answers a
// logged 500 internal envelope instead.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := s.encodeJSON(v)
	if err != nil {
		s.writeAPIError(w, internalError(fmt.Errorf("encoding %T response: %w", v, err)))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		s.clientAborts.Inc()
	}
}

// writeRawJSON writes a pre-marshaled JSON payload (already carrying the
// trailing newline that json.Encoder emits, so cached and freshly encoded
// responses are byte-identical).
func (s *Server) writeRawJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		s.clientAborts.Inc()
	}
}

// writeAPIError renders the error envelope, attaching Retry-After for shed
// requests and logging (never leaking) the details of 5xx-class failures.
func (s *Server) writeAPIError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	if e.status >= 500 && e.err != nil {
		s.logger.Printf("%s (%d): %v", e.code, e.status, e.err)
	}
	s.writeJSON(w, e.status, ErrorResponse{Error: ErrorBody{Code: e.code, Message: e.message(), Field: e.field}})
}
