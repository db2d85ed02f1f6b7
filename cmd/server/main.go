// Command server runs the comparative review selection HTTP API.
//
// Usage:
//
//	server -addr :8080 -data data            # load corpora from a directory
//	server -addr :8080 -synthetic            # synthesize the three categories
//
// Endpoints: GET /healthz, GET /api/v1/categories,
// GET /api/v1/targets?category=X, POST /api/v1/select, POST /api/v1/extract,
// the corpus mutation endpoints (POST/PATCH/DELETE under
// /api/v1/corpora/{category}/items/{item}/reviews — incremental review
// appends, updates, and removes with per-item cache invalidation),
// plus operational routes: GET /metrics (Prometheus text exposition of
// per-endpoint latency histograms and pipeline-stage timers),
// GET /debug/vars (expvar), and GET /debug/pprof/* (runtime profiles).
//
// Select responses for named corpora are cached in a sharded LRU
// (-cache-bytes budget, default 64 MiB) and identical concurrent requests
// are coalesced into one pipeline execution. A miss runs the selection
// over each corpus's resident float64 review features and its shared
// regression templates.
//
// -max-inflight bounds concurrently executing select requests; excess
// requests queue briefly (up to 4×-max-inflight) and are shed with 503 +
// Retry-After once the queue fills or their deadline cannot outlast the
// expected wait. -store opens an append-only review store log whose
// health feeds GET /readyz;
// -mutlog additionally makes that log the write-ahead mutation log —
// every mutation endpoint call is appended to it before the in-memory
// apply (an empty log is seeded with the loaded corpora first, so update
// and remove records can validate against the live view).
//
// -serve-snapshot exposes GET /internal/v1/snapshot/{category} so peers
// (and cmd/router) can replicate this worker's corpora; -join <baseURL>
// bootstraps the worker's corpora from such a peer instead of -data or
// -synthetic, replaying the snapshot log through the store's torn-tail
// recovery and verifying fingerprint parity before serving.
//
// SIGINT/SIGTERM triggers a graceful shutdown: /readyz flips to
// overloaded (so load balancers drain the instance), in-flight requests
// get up to -drain to finish, the store is synced and closed, and stderr
// is flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"comparesets/internal/cluster"
	"comparesets/internal/datagen"
	"comparesets/internal/model"
	"comparesets/internal/service"
	"comparesets/internal/store"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		dataDir       = flag.String("data", "", "directory of corpus JSON files (from cmd/datagen)")
		synthetic     = flag.Bool("synthetic", false, "synthesize the three default corpora at startup")
		seed          = flag.Int64("seed", 1, "synthesis seed")
		cacheBytes    = flag.Int64("cache-bytes", service.DefaultCacheBytes, "selection result cache budget in bytes")
		maxInflight   = flag.Int("max-inflight", 0, "bound on concurrently executing select requests (0 = unlimited)")
		storePath     = flag.String("store", "", "append-only review store log to open (health feeds /readyz)")
		mutLog        = flag.Bool("mutlog", false, "write-ahead log corpus mutations to the -store log (seeds an empty log with the loaded corpora)")
		drain         = flag.Duration("drain", 10*time.Second, "graceful-shutdown window for in-flight requests")
		joinURL       = flag.String("join", "", "bootstrap corpora from a peer's snapshot endpoint (base URL of a worker or router) instead of -data/-synthetic")
		joinDir       = flag.String("join-dir", "", "directory for snapshot logs fetched by -join (default: a temp dir)")
		serveSnapshot = flag.Bool("serve-snapshot", false, "serve GET /internal/v1/snapshot/{category} so peers and the router can replicate from this worker")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "server: ", log.LstdFlags)

	var corpora map[string]*model.Corpus
	var err error
	if *joinURL != "" {
		dir := *joinDir
		if dir == "" {
			if dir, err = os.MkdirTemp("", "comparesets-join-*"); err != nil {
				logger.Fatal(err)
			}
		}
		corpora, err = cluster.Join(context.Background(), strings.TrimRight(*joinURL, "/"), dir, logger)
	} else {
		corpora, err = loadCorpora(*dataDir, *synthetic, *seed, logger)
	}
	if err != nil {
		logger.Fatal(err)
	}

	opts := service.Options{
		CacheBytes:  *cacheBytes,
		MaxInflight: *maxInflight,
	}
	var st *store.Store
	if *storePath != "" {
		st, err = store.OpenWithOptions(*storePath, store.OpenOptions{Logger: logger})
		if err != nil {
			logger.Fatal(err)
		}
		if rec := st.Recovery(); rec.DroppedRecords > 0 {
			logger.Printf("store: recovered %s dropping %d record(s) (%s)", *storePath, rec.DroppedRecords, rec.Reason)
		}
		logger.Printf("store: %s (%d records)", *storePath, st.Count())
		opts.StoreProbe = st.Healthy
	}
	if *mutLog {
		if st == nil {
			logger.Fatal("-mutlog requires -store")
		}
		if st.Count() == 0 {
			for _, c := range corpora {
				if err := st.AppendCorpus(c); err != nil {
					logger.Fatalf("seeding mutation log: %v", err)
				}
			}
			logger.Printf("store: seeded mutation log with %d corpora", len(corpora))
		}
		opts.MutationLog = st
	}
	svc := service.NewWithOptions(corpora, logger, opts)
	handler := svc.Handler()
	if *serveSnapshot {
		// Mount the snapshot stream on an outer mux so the service handler
		// keeps owning every other route.
		outer := http.NewServeMux()
		outer.Handle(cluster.SnapshotPathPrefix, cluster.SnapshotHandler(svc, logger))
		outer.Handle("/", handler)
		handler = outer
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(logger, handler),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			logger.Fatal(err)
		}
	case <-ctx.Done():
		// Flip readiness before tearing the listener down so load
		// balancers stop routing here while in-flight requests finish.
		svc.SetDraining(true)
		logger.Printf("shutting down (drain %v)", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
	}
	if st != nil {
		if err := st.Sync(); err != nil {
			logger.Printf("store sync: %v", err)
		}
		if err := st.Close(); err != nil {
			logger.Printf("store close: %v", err)
		}
	}
	// log.Logger writes are unbuffered, but the underlying fd may not be
	// durable yet; best-effort flush before exit.
	_ = os.Stderr.Sync()
}

// loadCorpora assembles the serving corpora: every *.json in dataDir, plus
// the three synthetic defaults when requested or when nothing was loaded.
func loadCorpora(dataDir string, synthetic bool, seed int64, logger *log.Logger) (map[string]*model.Corpus, error) {
	corpora := map[string]*model.Corpus{}
	if dataDir != "" {
		entries, err := os.ReadDir(dataDir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
				continue
			}
			path := filepath.Join(dataDir, e.Name())
			c, err := model.LoadCorpus(path)
			if err != nil {
				return nil, fmt.Errorf("loading %s: %w", path, err)
			}
			corpora[c.Category] = c
			logger.Printf("loaded %s (%d products, %d reviews)", c.Category, len(c.Items), c.NumReviews())
		}
	}
	if synthetic || len(corpora) == 0 {
		for _, cfg := range datagen.DefaultConfigs(seed) {
			c, err := datagen.Generate(cfg)
			if err != nil {
				return nil, err
			}
			corpora[c.Category] = c
			logger.Printf("synthesized %s (%d products, %d reviews)", c.Category, len(c.Items), c.NumReviews())
		}
	}
	return corpora, nil
}

func logRequests(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		logger.Print(fmt.Sprintf("%s %s %v", r.Method, r.URL.Path, time.Since(start)))
	})
}
