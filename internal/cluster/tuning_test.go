package cluster

import (
	"math/rand"
	"net/http"
	"testing"
	"time"

	"comparesets/internal/faultinject"
)

// TestDefaultTuningValues pins the routing policy value by value, both in
// defaultTuning and in a router NewRouter builds from it, so a change to
// any production setting shows up here.
func TestDefaultTuningValues(t *testing.T) {
	backends := []string{"http://a.invalid", "http://b.invalid"}
	rt, err := NewRouter(RouterOptions{Backends: backends, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	transport := rt.client.Transport.(*http.Transport)
	tun := defaultTuning
	wantRNG := rand.New(rand.NewSource(faultinject.CurrentSeed()))

	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"ring vnodes", tun.vnodes, 128},
		{"ring points per backend", len(rt.ring.points) / len(backends), 128},
		{"read retries", tun.maxRetries, 2},
		{"read default deadline", tun.defaultTimeout, 30 * time.Second},
		{"readyz poll interval", tun.healthInterval, 500 * time.Millisecond},
		{"health watcher interval", rt.health.interval, 500 * time.Millisecond},
		{"health probe timeout", rt.health.client.Timeout, 2 * time.Second},
		{"breaker consecutive failures", tun.breaker.ConsecutiveFailures, 5},
		{"breaker error rate", tun.breaker.ErrorRate, 0.5},
		{"breaker window", tun.breaker.Window, 50},
		{"breaker min samples", tun.breaker.MinSamples, 10},
		{"breaker cooldown", tun.breaker.Cooldown, 500 * time.Millisecond},
		{"breaker half-open probes", tun.breaker.HalfOpenProbes, 1},
		{"breaker successes to close", tun.breaker.SuccessesToClose, 2},
		{"router breaker config", rt.breakers[backends[0]].cfg, tun.breaker},
		{"retry budget tokens", tun.retryBudget.Tokens, 10.0},
		{"retry budget ratio", tun.retryBudget.Ratio, 0.1},
		{"retry budget starting fill", rt.budget.Remaining(), 10.0},
		{"backoff base", tun.backoff.Base, 5 * time.Millisecond},
		{"backoff cap", tun.backoff.Cap, 100 * time.Millisecond},
		{"upstream idle conns", tun.upstreamIdleConns, 32},
		{"upstream idle conns per host", transport.MaxIdleConnsPerHost, 32},
		{"upstream idle conns total", transport.MaxIdleConns, 32 * len(backends)},
		{"upstream idle conn timeout", transport.IdleConnTimeout, 90 * time.Second},
		{"upstream timeout", tun.upstreamTimeout, 60 * time.Second},
		{"upstream client timeout", rt.client.Timeout, 60 * time.Second},
		{"backoff jitter seed", rt.rng.Int63(), wantRNG.Int63()},
		{"replication default", rt.ring.Replication(), len(backends)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
