// Retry budgets and jittered backoff.
//
// Naive per-request retry policies turn a brownout into a meltdown: when a
// shard slows down, every client doubles its offered load exactly when the
// backend can least afford it. The router instead draws every retry from a
// shared token-bucket budget that refills as a fraction of successful work
// — a healthy cluster retries freely, a failing one degrades to roughly
// (1 + ratio)× its organic traffic. Retries apply only to idempotent
// selects; mutations are never retried (a replayed append would be a
// duplicate review).
package cluster

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// retryBudgetConfig tunes a RetryBudget; defaultTuning.retryBudget holds
// the router's values.
type retryBudgetConfig struct {
	// Tokens is the bucket capacity and its starting fill.
	Tokens float64
	// Ratio is how much budget each successful request deposits (0.1 is at
	// most one retry per ten successes, steady-state).
	Ratio float64
}

// RetryBudget is a token bucket shared by every retry the router issues. Safe for concurrent use.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	cfg    retryBudgetConfig
}

// newRetryBudget builds a full bucket.
func newRetryBudget(cfg retryBudgetConfig) *RetryBudget {
	return &RetryBudget{tokens: cfg.Tokens, cfg: cfg}
}

// Withdraw takes one token for a retry; false means the budget is
// exhausted and the caller must fail rather than amplify load.
func (b *RetryBudget) Withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Refund returns a withdrawn token that was never spent — the caller took
// it for a retry but no attempt could actually be issued (every
// candidate breaker refused, or the deadline preempted the backoff).
// Without it the shared budget drains precisely in the all-breakers-open
// scenario where no retry load was generated at all.
func (b *RetryBudget) Refund() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens++
	if b.tokens > b.cfg.Tokens {
		b.tokens = b.cfg.Tokens
	}
}

// Deposit credits one successful original request.
func (b *RetryBudget) Deposit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += b.cfg.Ratio
	if b.tokens > b.cfg.Tokens {
		b.tokens = b.cfg.Tokens
	}
}

// Remaining returns the current token count (for /readyz reporting).
func (b *RetryBudget) Remaining() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// backoffConfig shapes the inter-attempt delay: jittered exponential,
// base·2^attempt with ±50% jitter, capped.
type backoffConfig struct {
	// Base is the attempt-0 delay.
	Base time.Duration
	// Cap bounds the grown delay before jitter.
	Cap time.Duration
}

// delay computes the jittered delay before retry number attempt (1-based:
// the first retry is attempt 1). rng draws the jitter; it must be used
// under the caller's synchronization.
func (c backoffConfig) delay(attempt int, rng *rand.Rand) time.Duration {
	d := c.Base << uint(attempt-1)
	if d > c.Cap || d <= 0 {
		d = c.Cap
	}
	// ±50% jitter: [0.5d, 1.5d) decorrelates retry storms across clients.
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	return time.Duration(half + rng.Int63n(2*half))
}

// sleepCtx sleeps for d or until ctx is done, reporting whether the full
// delay elapsed (false = the deadline preempted the retry).
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
