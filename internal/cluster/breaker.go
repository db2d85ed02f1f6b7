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

// breakerConfig tunes one breaker; defaultTuning.breaker holds the
// router's values.
type breakerConfig struct {
	// ConsecutiveFailures opens the circuit after this many failures in a
	// row.
	ConsecutiveFailures int
	// Window is how many recent outcomes the error-rate trip condition
	// looks at.
	Window int
	// ErrorRate opens the circuit when the windowed failure fraction
	// reaches this value with at least MinSamples outcomes recorded.
	ErrorRate float64
	// MinSamples gates the error-rate trip so a cold window cannot open on
	// its first failure.
	MinSamples int
	// Cooldown is how long an open circuit refuses traffic before letting
	// probes through.
	Cooldown time.Duration
	// HalfOpenProbes bounds concurrent probes while half-open.
	HalfOpenProbes int
	// SuccessesToClose is how many consecutive probe successes close a
	// half-open circuit.
	SuccessesToClose int
}

// Breaker is one backend's circuit. Safe for concurrent use.
type Breaker struct {
	cfg breakerConfig
	now func() time.Time // the cooldown clock; tests swap in a fake

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

// newBreaker builds a closed breaker.
func newBreaker(cfg breakerConfig) *Breaker {
	return &Breaker{cfg: cfg, now: time.Now, window: make([]bool, cfg.Window)}
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
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cfg.Cooldown {
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
		b.openedAt = b.now()
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
