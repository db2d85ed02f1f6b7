package regress

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"comparesets/internal/linalg"
	"comparesets/internal/obs"
)

// refFrac is one uncapped entry's fractional part in apportionInto.
type refFrac struct {
	idx int
	rem float64
}

// apportionInto is the dense largest-remainder apportionment the solver
// used before sparse rounding, kept verbatim as the reference the rounder
// is checked against: nu (length len(u), fully overwritten) receives the
// multiplicities and rems is a reusable scratch returned for the next
// call. ok is false when the caps make the total infeasible.
func apportionInto(u linalg.Vector, counts []int, total int, nu []int, rems []refFrac) (bool, []refFrac) {
	n := len(u)
	rems = rems[:0]
	assigned := 0
	for i := 0; i < n; i++ {
		ideal := u[i] * float64(total)
		f := int(math.Floor(ideal + 1e-12))
		if f > counts[i] {
			f = counts[i]
		}
		nu[i] = f
		assigned += f
		if f < counts[i] {
			rems = append(rems, refFrac{i, ideal - float64(f)})
		}
	}
	if assigned > total {
		// Over-assignment can only come from the floor of an exact ideal
		// exceeding the remaining budget; shave the smallest ideals.
		type ent struct {
			idx   int
			ideal float64
		}
		var es []ent
		for i := 0; i < n; i++ {
			if nu[i] > 0 {
				es = append(es, ent{i, u[i] * float64(total)})
			}
		}
		for i := 1; i < len(es); i++ {
			e := es[i]
			j := i - 1
			for j >= 0 && es[j].ideal > e.ideal {
				es[j+1] = es[j]
				j--
			}
			es[j+1] = e
		}
		for _, e := range es {
			for assigned > total && nu[e.idx] > 0 {
				nu[e.idx]--
				assigned--
			}
		}
	}
	// Distribute the remainder by largest fractional part (stable on ties
	// by index for determinism); insertion sort, descending by remainder
	// then ascending by index.
	for i := 1; i < len(rems); i++ {
		r := rems[i]
		j := i - 1
		for j >= 0 && (rems[j].rem < r.rem || (rems[j].rem == r.rem && rems[j].idx > r.idx)) {
			rems[j+1] = rems[j]
			j--
		}
		rems[j+1] = r
	}
	for _, r := range rems {
		if assigned == total {
			break
		}
		room := counts[r.idx] - nu[r.idx]
		take := total - assigned
		if take > room {
			take = room
		}
		// Largest remainder normally adds one unit; allow more when the
		// cap structure leaves no other entries with room.
		if take > 1 {
			take = 1
		}
		nu[r.idx] += take
		assigned += take
	}
	// Second pass if still short (caps exhausted the 1-unit round).
	for pass := 0; assigned < total && pass < total; pass++ {
		progress := false
		for _, r := range rems {
			if assigned == total {
				break
			}
			if nu[r.idx] < counts[r.idx] {
				nu[r.idx]++
				assigned++
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	if assigned != total {
		return false, rems
	}
	return true, rems
}

// apportion runs the production rounder for one total and returns the
// dense multiplicity vector, or nil when the total is infeasible.
func apportion(u linalg.Vector, counts []int, total int) []int {
	var r rounder
	r.load(u, counts)
	sparse, ok := r.apportion(total)
	if !ok {
		return nil
	}
	return denseOf(sparse, len(u))
}

func denseOf(sparse []mult, n int) []int {
	nu := make([]int, n)
	for _, e := range sparse {
		nu[e.idx] = e.k
	}
	return nu
}

// checkRounder compares every total 1..maxTotal of a loaded rounder with
// the dense reference: same ok verdict, same ν, and a sparse ν that is
// ascending with no zero entries.
func checkRounder(t *testing.T, r *rounder, u linalg.Vector, counts []int, maxTotal int) {
	t.Helper()
	want := make([]int, len(u))
	var rems []refFrac
	for total := 1; total <= maxTotal; total++ {
		var wantOK bool
		wantOK, rems = apportionInto(u, counts, total, want, rems)
		sparse, ok := r.apportion(total)
		if ok != wantOK {
			t.Fatalf("total %d: ok %v, reference %v (u=%v counts=%v)", total, ok, wantOK, u, counts)
		}
		if !ok {
			continue
		}
		for k, e := range sparse {
			if e.k == 0 || (k > 0 && sparse[k-1].idx >= e.idx) {
				t.Fatalf("total %d: sparse ν %v is not ascending and zero-free", total, sparse)
			}
		}
		got := denseOf(sparse, len(u))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("total %d: ν %v, reference %v (u=%v counts=%v)", total, got, want, u, counts)
			}
		}
	}
}

// FuzzSparseApportion is the differential check of the support-sparse
// rounder against the dense reference apportionInto, for every total up to
// past the caps' capacity. Half of the byte weights map to zero so the
// support is a strict subset; caps include zero; small integer weights give
// exact-integer ideals; special injects a NaN, +Inf or negative weight
// (dense mode). Each input first runs on a pooled rounder that has just
// apportioned a larger instance, so stale state from a bigger problem
// would show.
func FuzzSparseApportion(f *testing.F) {
	f.Add([]byte{129, 129}, []byte{3, 3}, uint8(6), uint8(0))                   // exact-integer ideals
	f.Add([]byte{0, 200, 0, 131, 0}, []byte{0, 2, 4, 0, 1}, uint8(9), uint8(0)) // zero caps
	f.Add([]byte{255, 0, 0}, []byte{1, 1, 1}, uint8(12), uint8(0))              // totals past capacity
	f.Add([]byte{130, 129, 0, 0}, []byte{1, 4, 2, 1}, uint8(8), uint8(0))       // second pass
	f.Add([]byte{140, 150, 0, 160}, []byte{4, 4, 4, 4}, uint8(10), uint8(9))    // NaN weight
	f.Add([]byte{140, 150, 0, 160}, []byte{4, 4, 4, 4}, uint8(10), uint8(18))   // +Inf weight
	f.Add([]byte{140, 150, 0, 160}, []byte{4, 4, 4, 4}, uint8(10), uint8(27))   // negative weight
	f.Add([]byte{200, 0, 0, 0, 0, 0, 0, 129}, []byte{4, 1, 1, 1, 1, 1, 1, 2}, uint8(15), uint8(0))
	f.Fuzz(func(t *testing.T, weights, caps []byte, maxRaw, special uint8) {
		n := min(len(weights), len(caps))
		if n == 0 {
			return
		}
		x := linalg.NewVector(n)
		counts := make([]int, n)
		for i := 0; i < n; i++ {
			x[i] = math.Max(0, float64(weights[i])-128)
			counts[i] = int(caps[i] % 5)
		}
		u := x.Normalized()
		if u.Norm1() == 0 {
			return
		}
		switch j := int(special/8) % n; special % 8 {
		case 1:
			u[j] = math.NaN()
		case 2:
			u[j] = math.Inf(1)
		case 3:
			u[j] = -u[j] - 0.25
		}
		maxTotal := 1 + int(maxRaw%24)

		sc := scratchPool.Get().(*solverScratch)
		defer scratchPool.Put(sc)
		big := append(append(linalg.Vector{}, u...), 0.5, 0, 0.25)
		bigCounts := append(append([]int{}, counts...), 2, 3, 1)
		sc.rnd.load(big, bigCounts)
		checkRounder(t, &sc.rnd, big, bigCounts, maxTotal)
		sc.rnd.load(u, counts)
		checkRounder(t, &sc.rnd, u, counts, maxTotal)
	})
}

// recordingEval wraps eval and records a copy of every selection it is
// asked to score, in call order.
func recordingEval(eval func([]int) float64, calls *[][]int) func([]int) float64 {
	return func(sel []int) float64 {
		*calls = append(*calls, append([]int(nil), sel...))
		return eval(sel)
	}
}

// SolveContext scores exactly the selections the dense reference scores —
// every iterate of the same NOMP path rounded densely for T = 1..m,
// expanded, and deduplicated on the expanded selection — in the same
// order, and returns the same answer: deduplicating sparse ν before
// expansion drops what selection dedup dropped, and skipping a repeated
// iterate drops only seen candidates.
func TestSolveEvalSequenceMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	evals := []func([]int) float64{
		func(sel []int) float64 {
			var s float64
			for _, j := range sel {
				s += float64((j*7)%5) * 0.25
			}
			return math.Abs(float64(len(sel))-3) + s
		},
		func([]int) float64 { return 1 }, // all ties: the first candidate wins
	}
	scored := 0
	for trial := 0; trial < 300; trial++ {
		rows := 2 + rng.Intn(30)
		a := designWithDuplicates(rng, rows, 1+rng.Intn(30))
		y := linalg.NewVector(rows)
		for i := range y {
			if rng.Intn(3) > 0 {
				y[i] = rng.Float64()
			}
		}
		m := 1 + trial%10
		eval := evals[trial%len(evals)]
		var want, got [][]int
		wantSel, wantObj := solveWithRounding(a, y, m, roundCandidates, recordingEval(eval, &want))
		gotSel, gotObj := solve(newProblem(a), y, m, recordingEval(eval, &got))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (m=%d): eval sequence\n%v\nreference\n%v", trial, m, got, want)
		}
		if gotObj != wantObj || fmt.Sprint(gotSel) != fmt.Sprint(wantSel) {
			t.Fatalf("trial %d: (%v, %v), reference (%v, %v)", trial, gotSel, gotObj, wantSel, wantObj)
		}
		scored += len(got)
	}
	if scored == 0 {
		t.Fatal("no candidate was scored")
	}
}

// Every solve that reaches its candidate loop records one regress.round
// observation.
func TestSolveRecordsOneRoundObservation(t *testing.T) {
	a, y := benchProblem(40, 12)
	h := obs.StageHistogram(obs.StageRound)
	before := h.Count()
	solve(newProblem(a), y, 5, func(sel []int) float64 { return float64(len(sel)) })
	if got := h.Count() - before; got != 1 {
		t.Fatalf("one solve recorded %d round observations, want 1", got)
	}
}
