package faultinject

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDisabledCheckIsNil(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("enabled with nothing armed")
	}
	if err := Check("anything"); err != nil {
		t.Fatalf("Check = %v, want nil", err)
	}
}

func TestErrorMode(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Arm("p", Fault{Mode: ModeError})
	err := Check("p")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if Fires("p") != 1 {
		t.Errorf("Fires = %d, want 1", Fires("p"))
	}
	if err := Check("other"); err != nil {
		t.Errorf("unarmed point fired: %v", err)
	}
}

func TestCustomErrorStillIsInjected(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	custom := errors.New("disk on fire")
	Arm("p", Fault{Mode: ModeError, Err: custom})
	err := Check("p")
	if !errors.Is(err, ErrInjected) {
		t.Errorf("custom error lost ErrInjected: %v", err)
	}
}

func TestRemainingDisarmsAfterLastFire(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Arm("p", Fault{Mode: ModeError, Remaining: 2})
	if Check("p") == nil || Check("p") == nil {
		t.Fatal("first two checks should fire")
	}
	if err := Check("p"); err != nil {
		t.Fatalf("third check fired after Remaining exhausted: %v", err)
	}
	if Enabled() {
		t.Error("still enabled after self-disarm")
	}
	if Fires("p") != 2 {
		t.Errorf("Fires = %d, want 2", Fires("p"))
	}
}

func TestPanicMode(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Arm("p", Fault{Mode: ModePanic, PanicValue: "boom"})
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	Check("p")
	t.Fatal("Check returned instead of panicking")
}

func TestLatencyMode(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Arm("p", Fault{Mode: ModeLatency, Latency: 30 * time.Millisecond})
	start := time.Now()
	if err := Check("p"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("slept %v, want ≥ 30ms", d)
	}
}

func TestLatencyWakesOnContextDone(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Arm("p", Fault{Mode: ModeLatency, Latency: 5 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := CheckCtx(ctx, "p"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("latency ignored done ctx (slept %v)", d)
	}
}

func TestLatencyEndsOnRelease(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	release := make(chan struct{})
	Arm("p", Fault{Mode: ModeLatency, Latency: 5 * time.Second, Release: release})
	done := make(chan time.Duration)
	start := time.Now()
	go func() {
		Check("p")
		done <- time.Since(start)
	}()
	select {
	case <-done:
		t.Fatal("latency ended before the release")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if d := <-done; d > time.Second {
		t.Errorf("latency ignored the release (slept %v)", d)
	}
}

func TestProbabilisticFiringIsSeedDeterministic(t *testing.T) {
	Reset()
	t.Cleanup(func() { Reset(); Seed(1) })
	run := func() []bool {
		Reset()
		Seed(42)
		Arm("p", Fault{Mode: ModeError, Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = Check("p") != nil
		}
		return out
	}
	a, b := run(), run()
	var fired int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical seeds", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Errorf("prob 0.5 fired %d/%d times — not probabilistic", fired, len(a))
	}
}

func TestArmSpec(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	if err := ArmSpec("a=error, b=latency:5ms@0.5 ,c=panic"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	fa, fb, fc := faults["a"], faults["b"], faults["c"]
	mu.Unlock()
	if fa == nil || fa.Mode != ModeError {
		t.Errorf("a = %+v, want error mode", fa)
	}
	if fb == nil || fb.Mode != ModeLatency || fb.Latency != 5*time.Millisecond || fb.Prob != 0.5 {
		t.Errorf("b = %+v, want latency 5ms @0.5", fb)
	}
	if fc == nil || fc.Mode != ModePanic {
		t.Errorf("c = %+v, want panic mode", fc)
	}
	for _, bad := range []string{"noequals", "x=warp", "x=latency:zz", "x=error@nope"} {
		if err := ArmSpec(bad); err == nil {
			t.Errorf("ArmSpec(%q) accepted", bad)
		}
	}
}

func TestConcurrentChecks(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Arm("p", Fault{Mode: ModeError, Prob: 0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				Check("p")
				Check("unarmed")
			}
		}()
	}
	wg.Wait()
	if Fires("p") == 0 {
		t.Error("no fires under concurrency")
	}
}
