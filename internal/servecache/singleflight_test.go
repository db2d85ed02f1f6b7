package servecache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comparesets/internal/obs"
)

func TestDoCollapsesConcurrentCalls(t *testing.T) {
	m := obs.NewCacheMetrics(obs.NewRegistry(), "flight")
	g := NewFlightGroup(m)
	var executions atomic.Int64
	release := make(chan struct{})

	const callers = 16
	var wg sync.WaitGroup
	results := make([][]byte, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := g.Do(context.Background(), "hot", func(context.Context) ([]byte, error) {
				executions.Add(1)
				<-release
				return []byte("payload"), nil
			})
			results[i], errs[i] = v, err
		}(i)
	}
	// Wait until the flight exists and all joiners are queued on it.
	deadline := time.Now().Add(2 * time.Second)
	for g.InFlight() != 1 || m.Coalesced.Value() != callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("flights=%d coalesced=%d — joiners never queued", g.InFlight(), m.Coalesced.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("fn executed %d times, want exactly 1", n)
	}
	if m.Executions.Value() != 1 {
		t.Errorf("Executions counter = %d, want 1", m.Executions.Value())
	}
	for i := range results {
		if errs[i] != nil || string(results[i]) != "payload" {
			t.Errorf("caller %d: %q %v", i, results[i], errs[i])
		}
	}
}

func TestCanceledWaiterDetachesWithoutCancelingFlight(t *testing.T) {
	g := NewFlightGroup(nil)
	started := make(chan struct{})
	release := make(chan struct{})
	flightCtxErr := make(chan error, 1)

	// Leader with a background ctx keeps the flight alive.
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, _, err := g.Do(context.Background(), "k", func(fctx context.Context) ([]byte, error) {
			close(started)
			<-release
			flightCtxErr <- fctx.Err()
			return []byte("ok"), nil
		})
		if err != nil || string(v) != "ok" {
			t.Errorf("leader: %q %v", v, err)
		}
	}()
	<-started

	// A waiter with a short deadline joins, then detaches.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, shared, err := g.Do(ctx, "k", func(context.Context) ([]byte, error) {
		t.Error("joiner must not start its own computation")
		return nil, nil
	})
	if !shared || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter: shared=%v err=%v", shared, err)
	}

	// The flight must still be running, its context untouched.
	close(release)
	if ferr := <-flightCtxErr; ferr != nil {
		t.Errorf("flight ctx canceled by a detaching waiter: %v", ferr)
	}
	<-leaderDone
}

func TestLastDetachingParticipantCancelsFlight(t *testing.T) {
	g := NewFlightGroup(nil)
	started := make(chan struct{})
	canceled := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(fctx context.Context) ([]byte, error) {
			close(started)
			<-fctx.Done() // cooperative pipeline checkpoint
			close(canceled)
			return nil, fctx.Err()
		})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller err = %v", err)
	}
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("flight ctx was not canceled after the last participant detached")
	}
}

// TestCallerAfterCancellationLeadsFreshFlight: a caller arriving after the
// last participant detached, while the canceled flight is still winding
// down, must not inherit its context.Canceled; it gets a flight of its own.
func TestCallerAfterCancellationLeadsFreshFlight(t *testing.T) {
	g := NewFlightGroup(nil)
	started := make(chan struct{})
	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(fctx context.Context) ([]byte, error) {
			close(started)
			<-fctx.Done()
			<-release // the canceled flight has not returned yet
			return nil, fctx.Err()
		})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("detached caller err = %v", err)
	}
	defer close(release)
	later, cancelLater := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancelLater()
	v, shared, err := g.Do(later, "k", func(context.Context) ([]byte, error) {
		return []byte("fresh"), nil
	})
	if err != nil || shared || string(v) != "fresh" {
		t.Fatalf("later caller: v=%q shared=%v err=%v, want its own flight", v, shared, err)
	}
}

func TestFlightErrorSharedNotCached(t *testing.T) {
	g := NewFlightGroup(nil)
	boom := errors.New("boom")
	_, _, err := g.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// A later call runs again (errors are not memoized).
	var ran bool
	_, _, err = g.Do(context.Background(), "k", func(context.Context) ([]byte, error) {
		ran = true
		return []byte("v"), nil
	})
	if err != nil || !ran {
		t.Fatalf("second call: ran=%v err=%v", ran, err)
	}
}

// TestFlightStress races many keys and cancellations; meaningful under -race.
func TestFlightStress(t *testing.T) {
	g := NewFlightGroup(obs.NewCacheMetrics(obs.NewRegistry(), "stress"))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := string(rune('a' + (w+i)%4))
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if (w+i)%3 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Microsecond)
				}
				g.Do(ctx, key, func(fctx context.Context) ([]byte, error) {
					select {
					case <-fctx.Done():
						return nil, fctx.Err()
					case <-time.After(time.Duration(i%3) * time.Microsecond):
					}
					return []byte(key), nil
				})
				cancel()
			}
		}(w)
	}
	wg.Wait()
	// A flight whose last participant detached drains asynchronously: the
	// goroutine removes itself from the map only when fn returns. Poll.
	deadline := time.Now().Add(2 * time.Second)
	for g.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d flights leaked", g.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFlightPanicPropagatesToAllWaiters(t *testing.T) {
	m := obs.NewCacheMetrics(obs.NewRegistry(), "flight")
	g := NewFlightGroup(m)
	release := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := g.Do(context.Background(), "doomed", func(context.Context) ([]byte, error) {
				<-release
				panic("injected compute panic")
			})
			errs[i] = err
		}(i)
	}
	// All joiners queued on the one flight, then let it blow up.
	deadline := time.Now().Add(2 * time.Second)
	for g.InFlight() != 1 || m.Coalesced.Value() != callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("flights=%d coalesced=%d — joiners never queued", g.InFlight(), m.Coalesced.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait() // a deadlock here is the bug this test exists to catch

	for i, err := range errs {
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("caller %d: err = %v, want *PanicError", i, err)
		}
		if pe.Value != "injected compute panic" || len(pe.Stack) == 0 {
			t.Errorf("caller %d: PanicError = {%v, stack %d bytes}", i, pe.Value, len(pe.Stack))
		}
	}
	if g.InFlight() != 0 {
		t.Errorf("InFlight = %d after panic, want 0", g.InFlight())
	}
	// The key is not poisoned: the next Do runs a fresh flight.
	v, _, err := g.Do(context.Background(), "doomed", func(context.Context) ([]byte, error) {
		return []byte("recovered"), nil
	})
	if err != nil || string(v) != "recovered" {
		t.Errorf("post-panic Do = %q %v", v, err)
	}
}
