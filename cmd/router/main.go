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
//
// The flags are deployment settings only: -addr, -backends,
// -replication, -edge-cache-bytes (the edge cache's byte budget) and
// -drain (the graceful-shutdown window). The routing policy — ring size,
// retries, deadlines, health polling, breakers, retry budget, backoff and
// upstream pooling — is one fixed set of constants in internal/cluster,
// tabled in DESIGN.md.
//
// Operational routes: GET /healthz, GET /readyz (cluster view: per-backend
// health + breaker state, retry budget, unroutable categories), GET
// /metrics, GET /debug/vars, GET /debug/pprof/*. GET
// /internal/v1/snapshot/{category} proxies a snapshot stream from a live
// owning replica so joining workers can bootstrap through the router.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Args[1:], os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "router:", err)
		os.Exit(1)
	}
	_ = os.Stderr.Sync()
}

// run parses args, then routes until SIGINT/SIGTERM; usage text and logs
// go to stderr.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("router", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		backends    = fs.String("backends", "", "comma-separated worker base URLs (required)")
		replication = fs.Int("replication", 0, "replicas per category (0 = all backends)")
		edgeBytes   = fs.Int64("edge-cache-bytes", cluster.DefaultEdgeCacheBytes, "edge response cache budget in bytes")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown window for in-flight requests")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(stderr, "router: ", log.LstdFlags)

	var addrs []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			addrs = append(addrs, strings.TrimRight(b, "/"))
		}
	}
	if len(addrs) == 0 {
		return errors.New("-backends is required (comma-separated worker base URLs)")
	}

	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Backends:       addrs,
		Replication:    *replication,
		EdgeCacheBytes: *edgeBytes,
		Logger:         logger,
	})
	if err != nil {
		return err
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
			return err
		}
	case <-ctx.Done():
		logger.Printf("shutting down (drain %v)", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("shutdown: %v", err)
		}
	}
	return nil
}

func logRequests(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		logger.Print(fmt.Sprintf("%s %s %v", r.Method, r.URL.Path, time.Since(start)))
	})
}
