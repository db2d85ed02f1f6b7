package servecache

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"comparesets/internal/obs"
)

// PanicError is what every participant of a flight receives when the
// flight's compute function panics: the panic is recovered (so one bad key
// cannot kill the process or deadlock its waiters) and propagated as an
// error carrying the panic value and the captured stack.
type PanicError struct {
	// Value is what the compute function panicked with.
	Value any
	// Stack is the flight goroutine's stack at recovery time.
	Stack []byte
}

// Error keeps the message short; the stack is for the caller's logger.
func (e *PanicError) Error() string {
	return fmt.Sprintf("servecache: flight panicked: %v", e.Value)
}

// FlightGroup coalesces concurrent identical computations: while a
// computation for a key is in flight, further Do calls for the same key
// wait for its result instead of starting their own.
//
// Context semantics differ deliberately from the classic singleflight: the
// flight runs on its own context, detached from any single caller's, and
// is canceled only when every participant has detached. A caller whose ctx
// expires stops waiting and gets its own ctx.Err() — the flight keeps
// running for the remaining participants (and, on success, still populates
// whatever cache the compute function writes to). Only when the last
// participant leaves is the flight's context canceled, so abandoned work
// is reclaimed at the pipeline's next cancellation checkpoint. A canceled
// flight leaves the group at once: a caller arriving while it winds down
// leads a fresh flight rather than inheriting the cancellation.
//
// A compute function that panics does not crash the process or strand its
// waiters: the panic is recovered in the flight goroutine and every
// participant receives a *PanicError.
type FlightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
	m       *obs.CacheMetrics
}

type flight struct {
	done   chan struct{} // closed when val/err are set
	val    []byte
	err    error
	refs   int // participants still waiting
	cancel context.CancelFunc
}

// NewFlightGroup returns an empty group. Metrics may be nil; when set,
// Executions counts flight leaders and Coalesced counts joiners.
func NewFlightGroup(m *obs.CacheMetrics) *FlightGroup {
	return &FlightGroup{flights: map[string]*flight{}, m: m}
}

// Do returns the result of fn for key, coalescing concurrent calls: one
// caller (the leader) starts fn on a detached context; every concurrent
// caller with the same key shares the outcome. shared is true when the
// result came from a flight this caller did not lead.
//
// If ctx is done before the flight finishes, Do detaches and returns
// ctx.Err() without canceling the flight — unless this caller was the last
// participant, in which case the flight's context is canceled too.
func (g *FlightGroup) Do(ctx context.Context, key string, fn func(context.Context) ([]byte, error)) (val []byte, shared bool, err error) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		f.refs++
		g.mu.Unlock()
		if g.m != nil {
			g.m.Coalesced.Inc()
		}
		return g.wait(ctx, key, f, true)
	}
	// Leader: run fn on a context that survives this caller's cancellation
	// but still carries its values, and dies when the last waiter detaches.
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f := &flight{done: make(chan struct{}), refs: 1, cancel: cancel}
	g.flights[key] = f
	g.mu.Unlock()
	if g.m != nil {
		g.m.Executions.Inc()
	}
	go func() {
		var v []byte
		var ferr error
		// A panicking fn must not kill the process or strand the waiters:
		// recover it and propagate a PanicError to every participant.
		func() {
			defer func() {
				if r := recover(); r != nil {
					v, ferr = nil, &PanicError{Value: r, Stack: debug.Stack()}
				}
			}()
			v, ferr = fn(fctx)
		}()
		g.mu.Lock()
		f.val, f.err = v, ferr
		if g.flights[key] == f {
			delete(g.flights, key)
		}
		g.mu.Unlock()
		close(f.done)
		cancel()
	}()
	return g.wait(ctx, key, f, false)
}

// wait blocks until the flight completes or ctx is done, handling the
// participant refcount on early exit.
func (g *FlightGroup) wait(ctx context.Context, key string, f *flight, shared bool) ([]byte, bool, error) {
	select {
	case <-f.done:
		return f.val, shared, f.err
	case <-ctx.Done():
	}
	// Detach. The flight may have completed while we were acquiring the
	// lock; prefer its result in that case so a result computed anyway is
	// never thrown away.
	g.mu.Lock()
	select {
	case <-f.done:
		g.mu.Unlock()
		return f.val, shared, f.err
	default:
	}
	f.refs--
	last := f.refs == 0
	if last {
		// A canceled flight takes no new participants: it ends in
		// ctx.Err(), which a caller arriving now never asked for. The
		// next caller for key leads a fresh flight.
		delete(g.flights, key)
	}
	g.mu.Unlock()
	if last {
		f.cancel()
	}
	return nil, shared, ctx.Err()
}

// InFlight returns the number of keys currently being computed.
func (g *FlightGroup) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}
