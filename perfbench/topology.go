package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"comparesets/internal/cluster"
	"comparesets/internal/datagen"
	"comparesets/internal/model"
	"comparesets/internal/service"
)

// corpusSeed fixes the corpora: three categories, 394 targets. Only the
// request sequence depends on --seed.
const corpusSeed = 1

// workerCount is the replica count behind the router.
const workerCount = 2

// workerPort is the first of the fixed loopback ports the workers listen
// on. The router's consistent-hash ring places categories by backend
// address, so random ports would give every run a different placement;
// fixed ports give every run the same one. A busy port moves the whole set
// to the next free block, and the run record names the addresses used.
const workerPort = 27101

// listenWorkers binds one loopback listener per worker on fixed ports.
func listenWorkers() ([]net.Listener, error) {
	var lastErr error
	for base := workerPort; base < workerPort+10*workerCount; base += workerCount {
		var ls []net.Listener
		for i := 0; i < workerCount; i++ {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if err != nil {
				lastErr = err
				break
			}
			ls = append(ls, l)
		}
		if len(ls) == workerCount {
			return ls, nil
		}
		for _, l := range ls {
			l.Close()
		}
	}
	return nil, fmt.Errorf("no free worker ports from %d: %w", workerPort, lastErr)
}

func synthesize() (map[string]*model.Corpus, error) {
	out := map[string]*model.Corpus{}
	for _, cfg := range datagen.DefaultConfigs(corpusSeed) {
		c, err := datagen.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("synthesizing %s: %w", cfg.Category.Name, err)
		}
		out[c.Category] = c
	}
	return out, nil
}

// topology is the shipped serving path in one process: workers with default
// service.Options behind a router with default RouterOptions, each on its
// own loopback server.
type topology struct {
	workers  []*service.Server
	servers  []*httptest.Server
	router   *cluster.Router
	routerTS *httptest.Server
}

// startTopology synthesizes one corpus set per worker, starts the workers
// and the router, and waits until the router sees every worker ready. A
// non-nil tracer times every call into the worker and router handlers.
func startTopology(tr *tracer, logger *log.Logger) (*topology, error) {
	t := &topology{}
	listeners, err := listenWorkers()
	if err != nil {
		return nil, err
	}
	var urls []string
	for i := 0; i < workerCount; i++ {
		corpora, err := synthesize()
		if err != nil {
			for _, l := range listeners[i:] {
				l.Close()
			}
			t.close()
			return nil, err
		}
		srv := service.NewWithOptions(corpora, logger, service.Options{})
		h := srv.Handler()
		if tr != nil {
			h = tr.wrapWorker(h)
		}
		ts := httptest.NewUnstartedServer(h)
		ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		t.workers = append(t.workers, srv)
		t.servers = append(t.servers, ts)
		urls = append(urls, ts.URL)
	}
	rt, err := cluster.NewRouter(cluster.RouterOptions{Backends: urls, Logger: logger})
	if err != nil {
		t.close()
		return nil, fmt.Errorf("starting router: %w", err)
	}
	rt.Start()
	t.router = rt
	h := rt.Handler()
	if tr != nil {
		h = tr.wrapRouter(h)
	}
	t.routerTS = httptest.NewServer(h)
	if err := t.waitReady(10 * time.Second); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// waitReady polls the router's readiness view until every backend is ok.
func (t *topology) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		var view struct {
			Status string `json:"status"`
		}
		resp, err := http.Get(t.routerTS.URL + "/readyz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&view)
			resp.Body.Close()
		}
		if err == nil && view.Status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router not ready after %v (status %q, err %v)", limit, view.Status, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (t *topology) close() {
	if t.routerTS != nil {
		t.routerTS.Close()
	}
	if t.router != nil {
		t.router.Stop()
	}
	for _, ts := range t.servers {
		ts.Close()
	}
}

// warm sends each select body once to base, concurrency-wide, and fails on
// any non-200 answer.
func warm(client *http.Client, base string, bodies [][]byte, concurrency int) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, concurrency)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) || errs[w] != nil {
					return
				}
				resp, err := client.Post(base+"/api/v1/select", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					errs[w] = err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("warm-up select answered %d", resp.StatusCode)
				}
				errs[w] = err
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tracer times the calls into the router's and the workers' public
// handlers. It records only while on is set, so a traced run can
// interleave traced and untraced slices and report the tracing overhead.
type tracer struct {
	on atomic.Bool

	mu           sync.Mutex
	routerCalls  []time.Duration // every router API call
	workerSelect []time.Duration // worker select calls
	workerBusy   time.Duration   // all worker API calls
}

func (tr *tracer) wrapRouter(h http.Handler) http.Handler {
	return tr.wrap(h, func(_ *http.Request, d time.Duration) {
		tr.routerCalls = append(tr.routerCalls, d)
	})
}

func (tr *tracer) wrapWorker(h http.Handler) http.Handler {
	return tr.wrap(h, func(r *http.Request, d time.Duration) {
		tr.workerBusy += d
		if r.URL.Path == "/api/v1/select" {
			tr.workerSelect = append(tr.workerSelect, d)
		}
	})
}

// wrap times API calls into h while the tracer is on; record runs under
// tr.mu.
func (tr *tracer) wrap(h http.Handler, record func(r *http.Request, d time.Duration)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() || !strings.HasPrefix(r.URL.Path, "/api/") {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		tr.mu.Lock()
		record(r, d)
		tr.mu.Unlock()
	})
}

// durationsMS returns the durations in milliseconds, sorted.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}
