// Command router runs the fault-tolerant routing tier in front of N worker
// replicas (cmd/server processes).
//
// Usage:
//
//	router -addr :8080 -backends http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
// The router places categories onto backends by consistent hashing with a
// configurable replication factor, steers idempotent reads (select,
// extract, targets) toward the healthiest replica using each worker's
// /readyz state, retries transport errors and 5xx answers under a shared
// token-bucket budget with jittered backoff, one attempt at a time, and
// rewrites timeout_ms so upstream deadlines shrink with elapsed routing
// time. Review mutations fan out to every replica of
// the shard and their receipts are reconciled; replicas that miss or
// disagree on a write are drained from that category's reads.
//
// Reads of /api/v1/select additionally pass through a receipt-driven edge
// cache: a warm hit replays the exact bytes of a previously proxied
// response without any upstream exchange, a miss is a plain forward, and
// mutation receipts (or any divergence/rejoin event) invalidate the
// affected category's entries.
// -edge-cache-bytes sizes it.
//
// Operational routes: GET /healthz, GET /readyz (cluster view: per-backend
// health + breaker state, retry budget, unroutable categories), GET
// /metrics, GET /debug/vars, GET /debug/pprof/*. GET
// /internal/v1/snapshot/{category} proxies a snapshot stream from a live
// owning replica so joining workers can bootstrap through the router.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"comparesets/internal/cluster"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		backends       = flag.String("backends", "", "comma-separated worker base URLs (required)")
		replication    = flag.Int("replication", 0, "replicas per category (0 = all backends)")
		vnodes         = flag.Int("vnodes", 0, "virtual nodes per backend on the hash ring (0 = default 128)")
		maxRetries     = flag.Int("max-retries", 2, "extra read attempts after the first")
		defaultTimeout = flag.Duration("default-timeout", 30*time.Second, "per-request deadline when the client sends no timeout_ms")
		healthInterval = flag.Duration("health-interval", 500*time.Millisecond, "backend /readyz poll period")
		consecFails    = flag.Int("breaker-consecutive", 5, "consecutive failures that open a backend's breaker")
		errorRate      = flag.Float64("breaker-error-rate", 0.5, "windowed error rate that opens a backend's breaker")
		cooldown       = flag.Duration("breaker-cooldown", 500*time.Millisecond, "open-breaker cooldown before half-open probes")
		retryTokens    = flag.Float64("retry-tokens", 10, "retry budget bucket capacity")
		retryRatio     = flag.Float64("retry-ratio", 0.1, "retry budget deposited per successful request")
		edgeBytes      = flag.Int64("edge-cache-bytes", cluster.DefaultEdgeCacheBytes, "edge response cache budget in bytes")
		idleConns      = flag.Int("upstream-idle-conns", 0, "pooled idle connections kept per backend (0 = default 32)")
		drain          = flag.Duration("drain", 10*time.Second, "graceful-shutdown window for in-flight requests")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "router: ", log.LstdFlags)

	var addrs []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			addrs = append(addrs, strings.TrimRight(b, "/"))
		}
	}
	if len(addrs) == 0 {
		logger.Fatal("-backends is required (comma-separated worker base URLs)")
	}

	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Backends:       addrs,
		Replication:    *replication,
		VirtualNodes:   *vnodes,
		MaxRetries:     *maxRetries,
		DefaultTimeout: *defaultTimeout,
		HealthInterval: *healthInterval,
		Breaker: cluster.BreakerConfig{
			ConsecutiveFailures: *consecFails,
			ErrorRate:           *errorRate,
			Cooldown:            *cooldown,
		},
		RetryBudget:       cluster.RetryBudgetConfig{Tokens: *retryTokens, Ratio: *retryRatio},
		EdgeCacheBytes:    *edgeBytes,
		UpstreamIdleConns: *idleConns,
		Logger:            logger,
	})
	if err != nil {
		logger.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	logger.Printf("routing %d backend(s), replication %d", len(addrs), rt.Ring().Replication())

	srv := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(logger, rt.Handler()),
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
		logger.Printf("shutting down (drain %v)", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
	}
	_ = os.Stderr.Sync()
}

func logRequests(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		logger.Print(fmt.Sprintf("%s %s %v", r.Method, r.URL.Path, time.Since(start)))
	})
}
