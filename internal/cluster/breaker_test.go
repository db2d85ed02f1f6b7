package cluster

import (
	"testing"
	"time"
)

// fakeClock drives a breaker's cooldown deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }

// newTestBreaker builds a breaker on the router's breaker policy with
// set's overrides applied, driven by clk.
func newTestBreaker(clk *fakeClock, set func(*breakerConfig)) *Breaker {
	cfg := defaultTuning.breaker
	set(&cfg)
	b := newBreaker(cfg)
	b.now = clk.now
	return b
}

func TestBreakerOpensOnConsecutiveFailures(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, func(c *breakerConfig) {
		c.ConsecutiveFailures = 3
	})
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Record(false)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after 3 consecutive failures = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request")
	}
}

func TestBreakerOpensOnErrorRate(t *testing.T) {
	clk := newFakeClock()
	// Alternate success/failure: never 3 consecutive failures, but the
	// windowed error rate reaches 50% once MinSamples outcomes exist.
	b := newTestBreaker(clk, func(c *breakerConfig) {
		c.ConsecutiveFailures = 100
		c.Window = 20
		c.ErrorRate = 0.5
		c.MinSamples = 10
	})
	for i := 0; i < 9; i++ {
		b.Record(i%2 == 0) // F S F S F S F S F → 5 fails in 9
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state below MinSamples = %v, want closed", got)
	}
	b.Record(false) // 10th sample, 6/10 failures ≥ 50%
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state at 60%% windowed errors = %v, want open", got)
	}
}

func TestBreakerHalfOpenAfterCooldownThenCloses(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, func(c *breakerConfig) {
		c.ConsecutiveFailures = 1
		c.Cooldown = time.Second
		c.SuccessesToClose = 2
		c.HalfOpenProbes = 1
	})
	var transitions []string
	b.OnTransition(func(from, to BreakerState) {
		transitions = append(transitions, from.String()+">"+to.String())
	})
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state = %v, want open", got)
	}
	clk.advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker allowed traffic before the cooldown elapsed")
	}
	clk.advance(time.Millisecond)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", got)
	}

	// One probe slot: the first Allow claims it, a second is refused until
	// the probe outcome is recorded.
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	b.Record(true)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after 1/2 probe successes = %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the second probe")
	}
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after 2/2 probe successes = %v, want closed", got)
	}

	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestBreakerHalfOpenReopensOnProbeFailure(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, func(c *breakerConfig) {
		c.ConsecutiveFailures = 1
		c.Cooldown = time.Second
	})
	b.Record(false)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// The cooldown restarts from the reopen.
	clk.advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("reopened breaker allowed traffic inside the fresh cooldown")
	}
	clk.advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused the probe after the fresh cooldown")
	}
}

func TestBreakerCloseResetsWindow(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, func(c *breakerConfig) {
		c.ConsecutiveFailures = 2
		c.Cooldown = time.Second
		c.SuccessesToClose = 1
		c.Window = 10
		c.ErrorRate = 0.5
		c.MinSamples = 4
	})
	b.Record(false)
	b.Record(false) // trips (consecutive)
	clk.advance(time.Second)
	b.Allow()
	b.Record(true) // closes
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state = %v, want closed", got)
	}
	// The pre-trip failures must not linger: these two fresh outcomes stay
	// below MinSamples on a clean window, but a stale window would now hold
	// 4 samples with 3 failures and trip.
	b.Record(true)
	b.Record(false)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("stale window tripped the breaker: state = %v", got)
	}
}

func TestBreakerIgnoresStragglersWhileOpen(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, func(c *breakerConfig) {
		c.ConsecutiveFailures = 1
		c.Cooldown = time.Second
	})
	b.Record(false)
	b.Record(true) // straggler from before the trip
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("straggler success mutated an open breaker: %v", got)
	}
}

func TestBreakerReleaseFreesHalfOpenProbeSlot(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, func(c *breakerConfig) {
		c.ConsecutiveFailures = 1
		c.Cooldown = time.Second
		c.HalfOpenProbes = 1
		c.SuccessesToClose = 1
	})
	b.Record(false)
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker allowed a second concurrent probe")
	}
	// The probe is abandoned — cancelled because another replica answered —
	// so no outcome is ever recorded. Release must free the slot, or the
	// breaker wedges with Allow refusing forever.
	b.Release()
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after release = %v, want half-open (no outcome was recorded)", got)
	}
	if !b.Allow() {
		t.Fatal("released probe slot not reusable: breaker wedged")
	}
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", got)
	}
	// Release outside half-open is a no-op.
	b.Release()
	if !b.Allow() {
		t.Fatal("release on a closed breaker blocked traffic")
	}
}

func TestRetryBudgetExhaustionAndRefill(t *testing.T) {
	b := newRetryBudget(retryBudgetConfig{Tokens: 2, Ratio: 0.5})
	if !b.Withdraw() || !b.Withdraw() {
		t.Fatal("full budget refused a withdrawal")
	}
	if b.Withdraw() {
		t.Fatal("exhausted budget allowed a withdrawal")
	}
	// Two successes deposit 2×0.5 = 1 token: one more retry allowed.
	b.Deposit()
	b.Deposit()
	if !b.Withdraw() {
		t.Fatal("refilled budget refused a withdrawal")
	}
	if b.Withdraw() {
		t.Fatal("budget over-refilled")
	}
	// Deposits cap at the bucket size.
	for i := 0; i < 100; i++ {
		b.Deposit()
	}
	if got := b.Remaining(); got != 2 {
		t.Fatalf("Remaining() after saturation = %v, want 2", got)
	}
}

func TestRetryBudgetRefund(t *testing.T) {
	b := newRetryBudget(retryBudgetConfig{Tokens: 2, Ratio: 0.5})
	if !b.Withdraw() {
		t.Fatal("full budget refused a withdrawal")
	}
	// The withdrawn token was never spent (no attempt could be issued):
	// Refund restores the full token, unlike Deposit's fractional credit.
	b.Refund()
	if got := b.Remaining(); got != 2 {
		t.Fatalf("Remaining() after refund = %v, want 2", got)
	}
	// Refunds cap at the bucket size.
	b.Refund()
	if got := b.Remaining(); got != 2 {
		t.Fatalf("Remaining() after spurious refund = %v, want 2", got)
	}
}

func TestBackoffDelayJitterBounds(t *testing.T) {
	cfg := defaultTuning.backoff
	rng := testRand()
	for attempt := 1; attempt <= 10; attempt++ {
		base := cfg.Base << uint(attempt-1)
		if base > cfg.Cap || base <= 0 {
			base = cfg.Cap
		}
		for i := 0; i < 100; i++ {
			d := cfg.delay(attempt, rng)
			if d < base/2 || d > base+base/2 {
				t.Fatalf("attempt %d delay %v outside [%v, %v]", attempt, d, base/2, base+base/2)
			}
		}
	}
}
