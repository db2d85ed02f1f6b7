// Backend health polling.
//
// The PR 4 resilience layer gave every worker a /readyz state machine
// (ok | degraded | overloaded, 503 while draining). The watcher turns those
// per-replica self-reports into the router's balancing signal: traffic
// drains away from overloaded or draining replicas *before* they start
// failing requests, which is the difference between a blip in the p99 and
// an error-budget burn. Polling is deliberately cheap — one GET per backend
// per interval — and failure of the poll itself is a health signal
// (unreachable), not an error.
package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// Backend health states, ordered best-first. The first three mirror the
// worker's /readyz statuses; unreachable means the poll itself failed.
const (
	HealthOK          = "ok"
	HealthDegraded    = "degraded"
	HealthOverloaded  = "overloaded"
	HealthUnreachable = "unreachable"
)

// healthRank orders states for replica preference (lower is better).
func healthRank(state string) int {
	switch state {
	case HealthOK:
		return 0
	case HealthDegraded:
		return 1
	case HealthOverloaded:
		return 2
	default:
		return 3
	}
}

// HealthWatcher polls a fixed set of backends' /readyz endpoints and keeps
// the latest state per backend. Zero-configured backends report
// HealthUnreachable until the first poll completes.
type HealthWatcher struct {
	client   *http.Client
	interval time.Duration
	onChange func(addr, from, to string)

	mu     sync.RWMutex
	states map[string]string
	seen   map[string]time.Time

	stop chan struct{}
	done chan struct{}
}

// defaultProbeTimeout bounds one /readyz poll. The router's probe client
// carries it as its timeout; probe applies it itself to a client with none.
const defaultProbeTimeout = 2 * time.Second

// NewHealthWatcher builds a watcher that polls the backend base URLs
// through client every interval. onChange, when non-nil, observes every
// state transition (for logging/metrics).
func NewHealthWatcher(backends []string, client *http.Client, interval time.Duration, onChange func(addr, from, to string)) *HealthWatcher {
	w := &HealthWatcher{
		client:   client,
		interval: interval,
		onChange: onChange,
		states:   make(map[string]string, len(backends)),
		seen:     make(map[string]time.Time, len(backends)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, b := range backends {
		w.states[b] = HealthUnreachable
	}
	return w
}

// Start launches the poll loop (one immediate sweep, then every interval)
// and returns. Stop terminates it.
func (w *HealthWatcher) Start() {
	go func() {
		defer close(w.done)
		w.sweep()
		t := time.NewTicker(w.interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.sweep()
			}
		}
	}()
}

// Stop terminates the poll loop and waits for it to exit.
func (w *HealthWatcher) Stop() {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
}

// sweep polls every backend concurrently and records the results.
func (w *HealthWatcher) sweep() {
	w.mu.RLock()
	addrs := make([]string, 0, len(w.states))
	for a := range w.states {
		addrs = append(addrs, a)
	}
	w.mu.RUnlock()
	var wg sync.WaitGroup
	for _, addr := range addrs {
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			w.record(addr, w.probe(addr))
		}(addr)
	}
	wg.Wait()
}

// probe performs one /readyz poll. Any transport failure or non-JSON body
// is HealthUnreachable; a parseable body reports its own status whatever
// the HTTP code (the worker answers 503 for overloaded but the body still
// names the state).
func (w *HealthWatcher) probe(addr string) string {
	// A caller-supplied client with Timeout 0 means "no client-level
	// timeout", not "expire immediately" — bound the poll ourselves.
	timeout := w.client.Timeout
	if timeout <= 0 {
		timeout = defaultProbeTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/readyz", nil)
	if err != nil {
		return HealthUnreachable
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return HealthUnreachable
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return HealthUnreachable
	}
	switch body.Status {
	case HealthOK, HealthDegraded, HealthOverloaded:
		return body.Status
	default:
		return HealthUnreachable
	}
}

// record stores a poll result and fires the change observer.
func (w *HealthWatcher) record(addr, state string) {
	w.mu.Lock()
	prev := w.states[addr]
	w.states[addr] = state
	w.seen[addr] = time.Now()
	w.mu.Unlock()
	if prev != state && w.onChange != nil {
		w.onChange(addr, prev, state)
	}
}

// State returns the backend's last known health state.
func (w *HealthWatcher) State(addr string) string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if s, ok := w.states[addr]; ok {
		return s
	}
	return HealthUnreachable
}

// States returns a copy of every backend's last known state.
func (w *HealthWatcher) States() map[string]string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make(map[string]string, len(w.states))
	for a, s := range w.states {
		out[a] = s
	}
	return out
}

// MarkUnreachable force-records a backend as unreachable — the router calls
// it on hard transport failures so steering reacts immediately instead of
// waiting out the poll interval.
func (w *HealthWatcher) MarkUnreachable(addr string) {
	w.record(addr, HealthUnreachable)
}
