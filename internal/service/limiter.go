package service

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"comparesets/internal/obs"
)

// limiter is the select endpoint's admission controller: a bounded
// concurrency semaphore with a deadline-aware wait queue. Requests beyond
// the concurrency cap wait for a slot — unless the queue is full, or the
// expected wait (EWMA of recent pipeline service time × queue depth ahead,
// batched over the cap) already exceeds the request's own deadline, in
// which case the request is shed immediately with 503 and a Retry-After
// hint. Shedding early is the point: a request that would time out in the
// queue only wastes the slot another request could have used.
type limiter struct {
	capacity int
	maxQueue int
	slots    chan struct{} // capacity tokens; empty channel = all busy
	queued   atomic.Int64
	ewmaNs   atomic.Int64 // EWMA of service time (ns); 0 = no samples yet

	shed       func(reason string) *obs.Counter
	queueDepth *obs.Gauge
	inflight   *obs.Gauge
}

// ewmaSeed is the assumed service time before any sample lands (a generous
// pipeline latency, so a cold limiter sheds conservatively).
const ewmaSeed = 50 * time.Millisecond

// newLimiter admits capacity requests at once and queues up to
// 4×capacity more.
func newLimiter(capacity int, reg *obs.Registry) *limiter {
	l := &limiter{
		capacity: capacity,
		maxQueue: 4 * capacity,
		slots:    make(chan struct{}, capacity),
		shed: func(reason string) *obs.Counter {
			return reg.Counter("comparesets_load_shed_total",
				"Requests shed by admission control.", obs.Labels{"reason": reason})
		},
		queueDepth: reg.Gauge("comparesets_admission_queue_depth",
			"Requests waiting for an execution slot.", nil),
		inflight: reg.Gauge("comparesets_admission_inflight",
			"Requests holding an execution slot.", nil),
	}
	for i := 0; i < capacity; i++ {
		l.slots <- struct{}{}
	}
	return l
}

// acquire admits the request or sheds it. On success the returned release
// must be called exactly once when the request finishes; it feeds the
// service-time EWMA the wait estimates come from.
func (l *limiter) acquire(ctx context.Context) (release func(), aerr *apiError) {
	select {
	case <-l.slots:
		return l.releaseFunc(), nil
	default:
	}
	pos := l.queued.Add(1)
	if int(pos) > l.maxQueue {
		l.queued.Add(-1)
		l.shed("queue_full").Inc()
		return nil, overloaded("server at capacity", l.expectedWait(int(pos)))
	}
	l.queueDepth.Add(1)
	defer func() {
		l.queued.Add(-1)
		l.queueDepth.Add(-1)
	}()
	wait := l.expectedWait(int(pos))
	if d, ok := ctx.Deadline(); ok && time.Until(d) < wait {
		l.shed("deadline").Inc()
		return nil, overloaded("expected queue wait exceeds request deadline", wait)
	}
	select {
	case <-l.slots:
		return l.releaseFunc(), nil
	case <-ctx.Done():
		return nil, asAPIError(ctx.Err())
	}
}

// releaseFunc hands back the slot and records the observed service time.
func (l *limiter) releaseFunc() func() {
	l.inflight.Add(1)
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			l.observe(time.Since(start))
			l.inflight.Add(-1)
			l.slots <- struct{}{}
		})
	}
}

// observe folds one service time into the EWMA (α = 1/8).
func (l *limiter) observe(d time.Duration) {
	for {
		old := l.ewmaNs.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/8
		}
		if l.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// expectedWait estimates how long the pos-th queued request will wait: the
// queue drains capacity slots per service interval.
func (l *limiter) expectedWait(pos int) time.Duration {
	avg := time.Duration(l.ewmaNs.Load())
	if avg == 0 {
		avg = ewmaSeed
	}
	batches := (pos + l.capacity - 1) / l.capacity
	return avg * time.Duration(batches)
}

// busy reports slots exhausted with requests already waiting — the
// pressure signal the shortlist degradation ladder keys on.
func (l *limiter) busy() bool {
	return len(l.slots) == 0 && l.queued.Load() > 0
}

// saturated reports the queue at (or beyond) its bound — the readiness
// probe's overloaded signal.
func (l *limiter) saturated() bool {
	return len(l.slots) == 0 && int(l.queued.Load()) >= l.maxQueue
}

// state summarizes the limiter for the readiness probe.
func (l *limiter) state() string {
	switch {
	case l.saturated():
		return "saturated"
	case l.busy():
		return "busy"
	default:
		return fmt.Sprintf("ok (%d/%d slots free)", len(l.slots), l.capacity)
	}
}

// overloaded builds the 503 shed response; Retry-After is the expected
// wait rounded up to whole seconds (minimum 1).
func overloaded(msg string, wait time.Duration) *apiError {
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return &apiError{
		status:     503,
		code:       CodeOverloaded,
		err:        fmt.Errorf("%s (expected wait %v)", msg, wait.Round(time.Millisecond)),
		retryAfter: secs,
	}
}
