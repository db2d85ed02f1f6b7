// Package faultinject is a deterministic, seeded fault-injection registry
// for exercising the serving stack's failure paths in tests instead of
// hoping they work. Production code calls Check (or CheckCtx) at named
// injection points; the call is a single atomic load when nothing is armed,
// so leaving the points compiled into hot paths costs nothing.
//
// A Fault armed at a point fires in one of four modes:
//
//   - ModeError:    Check returns an error wrapping ErrInjected
//   - ModeLatency:  Check sleeps for Fault.Latency (or until Fault.Release
//     is closed), then returns nil
//   - ModePanic:    Check panics with Fault.PanicValue
//   - ModeConnDrop: Check returns ErrConnDrop; transport boundaries close
//     the connection mid-response instead of answering
//
// Firing can be made probabilistic (Fault.Prob) and bounded
// (Fault.Remaining). Probabilistic decisions come from a per-point PRNG
// seeded from the global seed (Seed, or the FAULTINJECT_SEED environment
// variable), so a chaos run is fully reproducible from its printed seed.
//
// Faults are armed per-test with Arm/Disarm/Reset, or at process start via
// the FAULTINJECT environment variable:
//
//	FAULTINJECT=1                                  # allow chaos tests, arm nothing
//	FAULTINJECT="store.itemreviews.read=error"     # arm one fault
//	FAULTINJECT="core.select=latency:5ms@0.1,service.select=panic"
//
// Each spec entry is point=mode[:arg][@prob]; mode is error, latency
// (arg = duration), panic, or conndrop.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Injection points wired into the serving stack. Arbitrary names are
// accepted by Arm/Check; these constants are the points production code
// actually consults.
const (
	// PointStoreScan fires at the start of the store's log replay (Open).
	PointStoreScan = "store.scan"
	// PointStoreRead fires at the start of each ItemReviews read attempt;
	// error mode simulates transient I/O and exercises the retry loop.
	PointStoreRead = "store.itemreviews.read"
	// PointFeatstoreFill fires before a feature-store fill; error mode
	// makes ItemFeatures decline (ok=false) so callers fall back to
	// per-request computation.
	PointFeatstoreFill = "featstore.fill"
	// PointCoreSelect fires at selector entry (SelectContext).
	PointCoreSelect = "core.select"
	// PointServiceSelect fires inside the select pipeline (within a
	// coalesced flight for cached requests).
	PointServiceSelect = "service.select"
	// PointServiceHandler fires in the HTTP middleware before the handler
	// runs; panic mode exercises the panic-recovery path directly.
	PointServiceHandler = "service.handler"
	// PointRouterForward fires in the routing tier before a request is
	// forwarded to a worker replica: error mode simulates a failed backend
	// call (exercising retries and circuit breakers), latency mode a slow
	// backend (exercising read deadlines), and conndrop mode an abrupt
	// mid-response connection loss.
	PointRouterForward = "router.forward"
	// PointRouterSnapshot fires on the snapshot-shipping path (both the
	// worker-side stream handler and the router-side proxy); conndrop mode
	// tears the stream mid-transfer, exercising the joiner's torn-tail
	// recovery.
	PointRouterSnapshot = "router.snapshot"
)

// ErrInjected is wrapped by every error ModeError produces; classify
// injected failures with errors.Is(err, ErrInjected).
var ErrInjected = errors.New("faultinject: injected fault")

// ErrConnDrop is the error ModeConnDrop produces (it wraps ErrInjected).
// Transport-layer call sites translate it into an abrupt connection close —
// a hijack-and-close for HTTP handlers — so clients observe a torn response
// rather than a well-formed error. Classify with errors.Is(err, ErrConnDrop).
var ErrConnDrop = fmt.Errorf("%w: connection drop", ErrInjected)

// Mode selects what firing a fault does.
type Mode int

const (
	// ModeError makes Check return an error wrapping ErrInjected.
	ModeError Mode = iota
	// ModeLatency makes Check sleep for Fault.Latency.
	ModeLatency
	// ModePanic makes Check panic with Fault.PanicValue.
	ModePanic
	// ModeConnDrop makes Check return ErrConnDrop; transport boundaries
	// translate it into closing the connection mid-response instead of
	// writing an error payload.
	ModeConnDrop
)

// String returns the spec name of the mode.
func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeLatency:
		return "latency"
	case ModePanic:
		return "panic"
	case ModeConnDrop:
		return "conndrop"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Fault describes one armed fault.
type Fault struct {
	Mode Mode
	// Err is returned by ModeError; nil uses ErrInjected directly.
	Err error
	// Latency is how long ModeLatency sleeps.
	Latency time.Duration
	// Release, when set, ends a ModeLatency sleep as soon as it is closed,
	// so a test can hold a code path open until an event, with Latency as
	// the bound.
	Release <-chan struct{}
	// PanicValue is what ModePanic panics with; nil panics with a
	// descriptive string naming the point.
	PanicValue any
	// Prob fires the fault with this probability per Check; values ≤ 0 or
	// ≥ 1 fire always. Draws come from a per-point PRNG seeded from the
	// global seed, so runs are reproducible.
	Prob float64
	// Remaining caps how many times the fault fires; 0 means unlimited.
	// After the last fire the fault disarms itself.
	Remaining int
}

// armedFault is a Fault plus its firing state.
type armedFault struct {
	Fault
	fires uint64
	rng   *rand.Rand
}

var (
	armed  atomic.Bool // fast-path gate: true iff any fault is armed
	mu     sync.Mutex
	faults = map[string]*armedFault{}
	// counts survives Disarm/Reset so tests can assert fire totals after
	// the exercised code path has been torn down.
	counts       = map[string]uint64{}
	seed   int64 = 1
)

func init() {
	if v := os.Getenv("FAULTINJECT_SEED"); v != "" {
		if s, err := strconv.ParseInt(v, 10, 64); err == nil {
			seed = s
		}
	}
	if spec := os.Getenv("FAULTINJECT"); spec != "" && spec != "0" && spec != "1" && !strings.EqualFold(spec, "true") {
		if err := ArmSpec(spec); err != nil {
			fmt.Fprintf(os.Stderr, "faultinject: ignoring invalid FAULTINJECT spec: %v\n", err)
		}
	}
}

// EnvEnabled reports whether the FAULTINJECT environment variable opts this
// process into fault injection (any non-empty value other than "0").
// Chaos-style tests gate on it so ordinary `go test ./...` stays
// deterministic and fault-free.
func EnvEnabled() bool {
	v := os.Getenv("FAULTINJECT")
	return v != "" && v != "0"
}

// Seed fixes the base seed of the per-point PRNGs. It resets the draw
// state of every armed probabilistic fault. The default is 1, or
// FAULTINJECT_SEED when set.
func Seed(s int64) {
	mu.Lock()
	defer mu.Unlock()
	seed = s
	for point, f := range faults {
		f.rng = pointRNG(point)
	}
}

// CurrentSeed returns the base seed in effect (for chaos harnesses that
// print it on failure).
func CurrentSeed() int64 {
	mu.Lock()
	defer mu.Unlock()
	return seed
}

// pointRNG derives a point's PRNG from the global seed. Caller holds mu.
func pointRNG(point string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(point))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// Arm installs (or replaces) the fault at a point.
func Arm(point string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	faults[point] = &armedFault{Fault: f, rng: pointRNG(point)}
	armed.Store(true)
}

// Disarm removes the fault at a point, if any.
func Disarm(point string) {
	mu.Lock()
	defer mu.Unlock()
	delete(faults, point)
	armed.Store(len(faults) > 0)
}

// Reset disarms every fault and clears the fire counts.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	faults = map[string]*armedFault{}
	counts = map[string]uint64{}
	armed.Store(false)
}

// Fires returns how many times the point's fault has fired (counted across
// re-arms; cleared by Reset).
func Fires(point string) uint64 {
	mu.Lock()
	defer mu.Unlock()
	return counts[point]
}

// Enabled reports whether any fault is armed. It is the same fast-path
// check Check performs first.
func Enabled() bool { return armed.Load() }

// Check consults the point and fires its armed fault, if any: it returns
// an injected error (ModeError), sleeps (ModeLatency), or panics
// (ModePanic). With nothing armed it is a single atomic load.
func Check(point string) error { return CheckCtx(nil, point) }

// ctxDoner is the subset of context.Context latency injection needs;
// taking it structurally keeps this package dependency-free.
type ctxDoner interface{ Done() <-chan struct{} }

// CheckCtx is Check with a context: an injected latency wakes early when
// ctx is done (and still returns nil — the caller's own ctx checkpoints
// decide what cancellation means). ctx may be nil.
func CheckCtx(ctx ctxDoner, point string) error {
	if !armed.Load() {
		return nil
	}
	f, err, fire := draw(point)
	if !fire {
		return nil
	}
	switch f.Mode {
	case ModeError:
		if err == nil {
			err = ErrInjected
		}
		return fmt.Errorf("%s: %w", point, err)
	case ModeLatency:
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		t := time.NewTimer(f.Latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-done:
		case <-f.Release:
		}
		return nil
	case ModePanic:
		panicValue := f.PanicValue
		if panicValue == nil {
			panicValue = "faultinject: injected panic at " + point
		}
		panic(panicValue)
	case ModeConnDrop:
		return fmt.Errorf("%s: %w", point, ErrConnDrop)
	}
	return nil
}

// draw decides under the lock whether the point's fault fires and returns
// what to do, so the firing itself (sleep/panic) happens lock-free.
func draw(point string) (fault Fault, err error, fire bool) {
	mu.Lock()
	defer mu.Unlock()
	f, ok := faults[point]
	if !ok {
		return Fault{}, nil, false
	}
	if f.Prob > 0 && f.Prob < 1 && f.rng.Float64() >= f.Prob {
		return Fault{}, nil, false
	}
	f.fires++
	counts[point]++
	if f.Remaining > 0 {
		f.Remaining--
		if f.Remaining == 0 {
			delete(faults, point)
			armed.Store(len(faults) > 0)
		}
	}
	// ModeError errors are wrapped per fire (outside the lock); the base
	// error is shared and immutable.
	if f.Err != nil && f.Mode == ModeError {
		err = f.Err
		if !errors.Is(err, ErrInjected) {
			err = fmt.Errorf("%w: %v", ErrInjected, f.Err)
		}
	}
	return f.Fault, err, true
}

// ArmSpec arms every fault in a comma-separated spec list of the form
// point=mode[:arg][@prob], e.g.
//
//	store.itemreviews.read=error
//	core.select=latency:5ms@0.25
//	service.select=panic
func ArmSpec(spec string) error {
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		point, rest, ok := strings.Cut(entry, "=")
		if !ok || point == "" {
			return fmt.Errorf("faultinject: bad spec entry %q (want point=mode[:arg][@prob])", entry)
		}
		var f Fault
		if at := strings.LastIndex(rest, "@"); at >= 0 {
			p, err := strconv.ParseFloat(rest[at+1:], 64)
			if err != nil {
				return fmt.Errorf("faultinject: bad probability in %q: %v", entry, err)
			}
			f.Prob = p
			rest = rest[:at]
		}
		modeName, arg, _ := strings.Cut(rest, ":")
		switch modeName {
		case "error":
			f.Mode = ModeError
		case "panic":
			f.Mode = ModePanic
		case "conndrop":
			f.Mode = ModeConnDrop
		case "latency":
			f.Mode = ModeLatency
			d, err := time.ParseDuration(arg)
			if err != nil {
				return fmt.Errorf("faultinject: bad latency in %q: %v", entry, err)
			}
			f.Latency = d
		default:
			return fmt.Errorf("faultinject: unknown mode %q in %q", modeName, entry)
		}
		Arm(point, f)
	}
	return nil
}
