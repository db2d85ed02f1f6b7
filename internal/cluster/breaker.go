// Per-backend circuit breakers.
//
// A breaker sits between the router and one worker replica and answers one
// question before every forward: is this backend worth a request right now?
// Closed means yes; open means no (the backend recently failed hard enough
// that more traffic only burns deadline); half-open means "send a probe and
// find out". Two independent trip conditions feed it — a run of consecutive
// failures (fast trip on a dead backend) and a windowed error rate (slow
// trip on a flaky one that still answers sometimes) — because a backend
// that alternates success and failure never builds a consecutive run yet
// still deserves isolation.
package cluster

import (
	"sync"
	"time"
)

// BreakerState is the circuit state machine's position.
type BreakerState int

const (
	// BreakerClosed: requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are refused until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: a bounded number of probe requests may pass; their
	// outcome closes or reopens the circuit.
	BreakerHalfOpen
)

// String returns the conventional state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes one breaker. The zero value is usable: every field
// falls back to the package default.
type BreakerConfig struct {
	// ConsecutiveFailures opens the circuit after this many failures in a
	// row (default 5).
	ConsecutiveFailures int
	// Window is how many recent outcomes the error-rate trip condition
	// looks at (default 50).
	Window int
	// ErrorRate opens the circuit when the windowed failure fraction
	// reaches this value with at least MinSamples outcomes recorded
	// (default 0.5).
	ErrorRate float64
	// MinSamples gates the error-rate trip so a cold window cannot open on
	// its first failure (default 10).
	MinSamples int
	// Cooldown is how long an open circuit refuses traffic before letting
	// probes through (default 500ms).
	Cooldown time.Duration
	// HalfOpenProbes bounds concurrent probes while half-open (default 1).
	HalfOpenProbes int
	// SuccessesToClose is how many consecutive probe successes close a
	// half-open circuit (default 2).
	SuccessesToClose int
	// now overrides the clock in tests; nil uses time.Now.
	now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.ConsecutiveFailures <= 0 {
		c.ConsecutiveFailures = 5
	}
	if c.Window <= 0 {
		c.Window = 50
	}
	if c.ErrorRate <= 0 || c.ErrorRate > 1 {
		c.ErrorRate = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 500 * time.Millisecond
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.SuccessesToClose <= 0 {
		c.SuccessesToClose = 2
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Breaker is one backend's circuit. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu           sync.Mutex
	state        BreakerState
	consecFails  int
	window       []bool // ring of outcomes, true = failure
	windowAt     int
	windowFilled int
	windowFails  int
	openedAt     time.Time
	probes       int // in-flight probes while half-open
	probeWins    int // consecutive probe successes while half-open
	// onTransition, when set, observes every state change (for metrics).
	onTransition func(from, to BreakerState)
}

// NewBreaker builds a breaker with the config's defaults applied.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, window: make([]bool, cfg.Window)}
}

// OnTransition registers a state-change observer (replacing any previous
// one). The callback runs under the breaker lock; keep it O(1).
func (b *Breaker) OnTransition(f func(from, to BreakerState)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onTransition = f
}

// State returns the current state, promoting an expired open circuit to
// half-open as a side effect so callers always observe the actionable
// state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	return b.state
}

// Allow reports whether a request may be sent now. While half-open it
// also claims a probe slot; the caller MUST follow up with Record so the
// slot is released and the probe outcome counted.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if b.probes < b.cfg.HalfOpenProbes {
			b.probes++
			return true
		}
		return false
	default:
		return false
	}
}

// Release returns a slot claimed by Allow without recording an outcome.
// The router calls it when an attempt is abandoned with no verdict on the
// backend — the client went away, its deadline expired, or an injected
// conn-drop tore the exchange down. Without it an abandoned half-open probe would
// hold its slot forever: Allow would refuse every future probe and the
// backend could never rejoin rotation.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen && b.probes > 0 {
		b.probes--
	}
}

// Record reports one request outcome. Success while half-open counts
// toward closing; failure reopens immediately. Failures while closed feed
// both trip conditions.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpen()
	switch b.state {
	case BreakerHalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if !success {
			b.transition(BreakerOpen)
			return
		}
		b.probeWins++
		if b.probeWins >= b.cfg.SuccessesToClose {
			b.transition(BreakerClosed)
		}
	case BreakerClosed:
		b.push(!success)
		if success {
			b.consecFails = 0
			return
		}
		b.consecFails++
		if b.consecFails >= b.cfg.ConsecutiveFailures {
			b.transition(BreakerOpen)
			return
		}
		if b.windowFilled >= b.cfg.MinSamples &&
			float64(b.windowFails) >= b.cfg.ErrorRate*float64(b.windowFilled) {
			b.transition(BreakerOpen)
		}
	case BreakerOpen:
		// A straggler outcome from before the trip: ignored. The cooldown
		// clock, not late results, decides when to probe again.
	}
}

// maybeHalfOpen promotes an open circuit whose cooldown has elapsed.
// Caller holds b.mu.
func (b *Breaker) maybeHalfOpen() {
	if b.state == BreakerOpen && b.cfg.now().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.transition(BreakerHalfOpen)
	}
}

// transition moves the state machine and resets the per-state scratch.
// Caller holds b.mu.
func (b *Breaker) transition(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	switch to {
	case BreakerOpen:
		b.openedAt = b.cfg.now()
		b.probes = 0
		b.probeWins = 0
	case BreakerHalfOpen:
		b.probes = 0
		b.probeWins = 0
	case BreakerClosed:
		b.consecFails = 0
		b.windowAt, b.windowFilled, b.windowFails = 0, 0, 0
		for i := range b.window {
			b.window[i] = false
		}
	}
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}

// push records one outcome into the sliding window. Caller holds b.mu.
func (b *Breaker) push(failure bool) {
	if b.windowFilled == len(b.window) {
		if b.window[b.windowAt] {
			b.windowFails--
		}
	} else {
		b.windowFilled++
	}
	b.window[b.windowAt] = failure
	if failure {
		b.windowFails++
	}
	b.windowAt = (b.windowAt + 1) % len(b.window)
}
