package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"comparesets/internal/model"
	"comparesets/internal/opinion"
)

// workingExampleInstance builds the three-item instance of Figure 2. p₁ is
// the target from Working Example 1 (aspects {battery, lens, quality, price,
// shuttle}); p₂ and p₃ are comparative items whose reviews overlap p₁'s
// aspects to different degrees, so CompaReSetS+ has room to synchronize.
func workingExampleInstance() *model.Instance {
	voc := model.NewVocabulary([]string{"battery", "lens", "quality", "price", "shuttle"})
	pos := func(a int) model.Mention { return model.Mention{Aspect: a, Polarity: model.Positive, Score: 1} }
	neg := func(a int) model.Mention { return model.Mention{Aspect: a, Polarity: model.Negative, Score: -1} }
	mk := func(item, id string, ms ...model.Mention) *model.Review {
		return &model.Review{ID: id, ItemID: item, Mentions: ms}
	}
	const (
		battery = 0
		lens    = 1
		quality = 2
		price   = 3
		shuttle = 4
	)
	p1 := &model.Item{ID: "p1", Title: "Camera One", Reviews: []*model.Review{
		mk("p1", "r1", pos(battery), pos(lens)),
		mk("p1", "r2", neg(battery), neg(lens)),
		mk("p1", "r3", neg(battery), pos(quality)),
		mk("p1", "r4", neg(quality)),
		mk("p1", "r5", pos(battery), pos(lens)),
		mk("p1", "r6", neg(battery), neg(lens), pos(quality)),
		mk("p1", "r7", neg(battery), neg(quality)),
	}}
	p2 := &model.Item{ID: "p2", Title: "Camera Two", Reviews: []*model.Review{
		mk("p2", "r8", pos(battery), pos(price)),
		mk("p2", "r9", neg(battery), pos(lens)),
		mk("p2", "r10", pos(battery), neg(price)),
		mk("p2", "r15", pos(battery), pos(quality)),
		mk("p2", "r16", neg(battery), pos(lens), neg(quality)),
		mk("p2", "r17", pos(battery), neg(price)),
	}}
	p3 := &model.Item{ID: "p3", Title: "Camera Three", Reviews: []*model.Review{
		mk("p3", "r18", pos(shuttle)),
		mk("p3", "r19", neg(shuttle), pos(price)),
		mk("p3", "r20", pos(battery), pos(quality), pos(lens)),
		mk("p3", "r21", neg(battery), neg(quality)),
	}}
	return &model.Instance{Aspects: voc, Items: []*model.Item{p1, p2, p3}}
}

func singleItemInstance() *model.Instance {
	full := workingExampleInstance()
	return &model.Instance{Aspects: full.Aspects, Items: full.Items[:1]}
}

func TestCompaReSetSRecoversWorkingExampleOptimum(t *testing.T) {
	inst := singleItemInstance()
	cfg := Config{M: 3, Lambda: 1}
	sel, err := (CompaReSetS{}).Select(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// S₁ = {r5, r6, r7} achieves objective 0; r1 ≡ r5, so {r1, r6, r7} is
	// the same solution up to duplicate reviews. Assert optimality via the
	// achieved vectors rather than exact indices.
	if sel.Objective > 1e-10 {
		t.Errorf("objective = %v, want 0", sel.Objective)
	}
	if got := sel.Indices[0]; len(got) != 3 {
		t.Fatalf("indices = %v, want 3 reviews", got)
	}
	tg := NewTargets(inst, cfg)
	set := sel.Reviews(inst)[0]
	z := inst.Aspects.Len()
	pi := (opinion.Binary{}).Vector(set, z)
	phi := opinion.AspectVector(set, z)
	if d := opinionDistance(tg.Tau[0], pi); d > 1e-10 {
		t.Errorf("π(S₁) = %v, want τ₁ = %v", pi, tg.Tau[0])
	}
	if d := opinionDistance(tg.Gamma, phi); d > 1e-10 {
		t.Errorf("φ(S₁) = %v, want Γ = %v", phi, tg.Gamma)
	}
}

func TestCompaReSetSAlternativeOptimumAtLargerM(t *testing.T) {
	inst := singleItemInstance()
	cfg := Config{M: 4, Lambda: 1}
	sel, err := (CompaReSetS{}).Select(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both {r5,r6,r7} and {r1,r2,r3,r4} are optimal with objective 0.
	if sel.Objective > 1e-10 {
		t.Errorf("objective = %v, want 0", sel.Objective)
	}
}

func TestCompaReSetSBudgetRespected(t *testing.T) {
	inst := workingExampleInstance()
	for _, m := range []int{1, 2, 3, 5} {
		sel, err := (CompaReSetS{}).Select(inst, Config{M: m, Lambda: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, idx := range sel.Indices {
			if len(idx) > m {
				t.Errorf("m=%d: item %d selected %d reviews", m, i, len(idx))
			}
			for _, j := range idx {
				if j < 0 || j >= len(inst.Items[i].Reviews) {
					t.Errorf("m=%d: item %d index %d out of range", m, i, j)
				}
			}
		}
	}
}

func TestCompaReSetSPlusNeverWorseOnEq5(t *testing.T) {
	// Algorithm 1 seeds each item update with the incumbent, so the Eq. 5
	// objective of CompaReSetS+ is ≤ that of the CompaReSetS start.
	inst := workingExampleInstance()
	for _, mu := range []float64{0.01, 0.1, 1, 10} {
		cfg := Config{M: 3, Lambda: 1, Mu: mu}
		tg := NewTargets(inst, cfg)
		base, err := (CompaReSetS{}).Select(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plus, err := (CompaReSetSPlus{}).Select(inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		baseObj := ObjectivePlus(inst, tg, cfg, base.Reviews(inst))
		if plus.Objective > baseObj+1e-9 {
			t.Errorf("mu=%v: plus objective %v > base %v", mu, plus.Objective, baseObj)
		}
	}
}

func TestCompaReSetSPlusSynchronizesAspects(t *testing.T) {
	// With a strong μ the selected sets of different items should share
	// more aspects than the unsynchronized selection.
	inst := workingExampleInstance()
	cfg := Config{M: 2, Lambda: 1, Mu: 10}
	base, _ := (CompaReSetS{}).Select(inst, cfg)
	plus, _ := (CompaReSetSPlus{}).Select(inst, cfg)
	overlap := func(sel *Selection) int {
		sets := sel.Reviews(inst)
		count := 0
		z := inst.Aspects.Len()
		for a := 0; a < z; a++ {
			in := 0
			for _, s := range sets {
				for _, r := range s {
					if r.HasAspect(a) {
						in++
						break
					}
				}
			}
			if in == len(sets) {
				count++
			}
		}
		return count
	}
	if overlap(plus) < overlap(base) {
		t.Errorf("plus overlap %d < base overlap %d", overlap(plus), overlap(base))
	}
}

func TestCRSMatchesOpinionDistribution(t *testing.T) {
	inst := singleItemInstance()
	cfg := Config{M: 3, Lambda: 1} // CRS internally forces λ=0
	sel, err := (CRS{}).Select(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tg := NewTargets(inst, cfg)
	set := sel.Reviews(inst)[0]
	pi := (opinion.Binary{}).Vector(set, inst.Aspects.Len())
	if d := opinionDistance(tg.Tau[0], pi); d > 1e-9 {
		t.Errorf("CRS opinion distance = %v, want ~0 (π=%v τ=%v)", d, pi, tg.Tau[0])
	}
}

func opinionDistance(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func TestGreedyDeterministicAndBounded(t *testing.T) {
	inst := workingExampleInstance()
	cfg := Config{M: 3, Lambda: 1}
	a, err := (Greedy{}).Select(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := (Greedy{}).Select(inst, cfg)
	if !reflect.DeepEqual(a.Indices, b.Indices) {
		t.Error("greedy is not deterministic")
	}
	for i, idx := range a.Indices {
		if len(idx) > cfg.M {
			t.Errorf("item %d: %d reviews", i, len(idx))
		}
	}
}

func TestRandomSeedDeterminism(t *testing.T) {
	inst := workingExampleInstance()
	a, _ := (Random{}).Select(inst, Config{M: 3, Seed: 7})
	b, _ := (Random{}).Select(inst, Config{M: 3, Seed: 7})
	c, _ := (Random{}).Select(inst, Config{M: 3, Seed: 8})
	if !reflect.DeepEqual(a.Indices, b.Indices) {
		t.Error("same seed produced different selections")
	}
	if reflect.DeepEqual(a.Indices, c.Indices) {
		t.Error("different seeds produced identical selections (suspicious)")
	}
	for i, idx := range a.Indices {
		seen := map[int]bool{}
		for _, j := range idx {
			if seen[j] {
				t.Errorf("item %d: duplicate index %d", i, j)
			}
			seen[j] = true
		}
	}
}

func TestConfigValidation(t *testing.T) {
	inst := workingExampleInstance()
	if _, err := (CompaReSetS{}).Select(inst, Config{M: 0}); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := (CompaReSetSPlus{}).Select(inst, Config{M: 3, Lambda: -1}); err == nil {
		t.Error("negative lambda accepted")
	}
	for _, s := range Selectors() {
		if _, err := s.Select(&model.Instance{Aspects: inst.Aspects}, Config{M: 3}); err == nil {
			t.Errorf("%s accepted empty instance", s.Name())
		}
	}
}

func TestEmptyReviewItemYieldsEmptySet(t *testing.T) {
	inst := workingExampleInstance()
	inst.Items = append(inst.Items, &model.Item{ID: "p4", Title: "No Reviews"})
	for _, s := range Selectors() {
		sel, err := s.Select(inst, Config{M: 3, Lambda: 1, Mu: 0.1})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(sel.Indices[3]) != 0 {
			t.Errorf("%s selected reviews for empty item: %v", s.Name(), sel.Indices[3])
		}
	}
}

func TestItemDistanceSymmetricNonNegative(t *testing.T) {
	inst := workingExampleInstance()
	cfg := Config{M: 3, Lambda: 1, Mu: 0.1}
	tg := NewTargets(inst, cfg)
	sel, _ := (CompaReSetSPlus{}).Select(inst, cfg)
	stats := Stats(inst, tg, cfg, sel)
	for i := range stats {
		for j := range stats {
			dij := ItemDistance(stats[i], stats[j], cfg)
			dji := ItemDistance(stats[j], stats[i], cfg)
			if dij < 0 {
				t.Errorf("d(%d,%d) = %v < 0", i, j, dij)
			}
			if math.Abs(dij-dji) > 1e-12 {
				t.Errorf("asymmetric distance d(%d,%d)=%v d(%d,%d)=%v", i, j, dij, j, i, dji)
			}
		}
	}
}

func TestStatsShapes(t *testing.T) {
	inst := workingExampleInstance()
	cfg := Config{M: 3, Lambda: 1}
	tg := NewTargets(inst, cfg)
	sel, _ := (CompaReSetS{}).Select(inst, cfg)
	stats := Stats(inst, tg, cfg, sel)
	if len(stats) != inst.NumItems() {
		t.Fatalf("stats length = %d", len(stats))
	}
	z := inst.Aspects.Len()
	for i, st := range stats {
		if len(st.Phi) != z {
			t.Errorf("item %d: |φ| = %d", i, len(st.Phi))
		}
		if st.OpinionLoss < 0 || st.AspectLoss < 0 {
			t.Errorf("item %d: negative loss", i)
		}
	}
}

// TargetsFor hands back the targets a selector's answer carries, and
// computes NewTargets's for a selection that carries none.
func TestSelectionTargetsFor(t *testing.T) {
	inst := workingExampleInstance()
	cfg := Config{M: 3, Lambda: 1}
	sel, err := (CompaReSetS{}).Select(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Targets == nil || sel.TargetsFor(inst, cfg) != sel.Targets {
		t.Fatal("TargetsFor did not return the selection's own targets")
	}
	bare := &Selection{Indices: sel.Indices}
	if got, want := bare.TargetsFor(inst, cfg), NewTargets(inst, cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("TargetsFor = %+v, NewTargets = %+v", got, want)
	}
}

func TestSelectorsRegistry(t *testing.T) {
	names := []string{"Random", "Crs", "CompaReSetS_Greedy", "CompaReSetS", "CompaReSetS+"}
	ss := Selectors()
	if len(ss) != len(names) {
		t.Fatalf("got %d selectors", len(ss))
	}
	for i, s := range ss {
		if s.Name() != names[i] {
			t.Errorf("selector %d = %s, want %s", i, s.Name(), names[i])
		}
		got, ok := SelectorByName(names[i])
		if !ok || got.Name() != names[i] {
			t.Errorf("SelectorByName(%s) failed", names[i])
		}
	}
	if _, ok := SelectorByName("nope"); ok {
		t.Error("unexpected selector for 'nope'")
	}
}

func TestObjectiveDecomposition(t *testing.T) {
	// Eq. 1 must equal the sum of per-item Eq. 3 values; Eq. 5 adds a
	// non-negative pairwise term.
	inst := workingExampleInstance()
	cfg := Config{M: 3, Lambda: 1, Mu: 0.5}
	tg := NewTargets(inst, cfg)
	sel, _ := (CompaReSetS{}).Select(inst, cfg)
	sets := sel.Reviews(inst)
	var sum float64
	for i := range inst.Items {
		sum += ItemObjective(inst, tg, cfg, i, sets[i])
	}
	eq1 := ObjectiveCompareSets(inst, tg, cfg, sets)
	if math.Abs(sum-eq1) > 1e-12 {
		t.Errorf("Eq1 = %v, per-item sum = %v", eq1, sum)
	}
	eq5 := ObjectivePlus(inst, tg, cfg, sets)
	if eq5 < eq1-1e-12 {
		t.Errorf("Eq5 = %v < Eq1 = %v", eq5, eq1)
	}
}

func TestCompaReSetSWithAllSchemes(t *testing.T) {
	inst := workingExampleInstance()
	for _, sch := range opinion.Schemes() {
		cfg := Config{M: 3, Lambda: 1, Mu: 0.1, Scheme: sch}
		for _, s := range Selectors() {
			sel, err := s.Select(inst, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name(), sch.Name(), err)
			}
			if len(sel.Indices) != inst.NumItems() {
				t.Errorf("%s/%s: %d index sets", s.Name(), sch.Name(), len(sel.Indices))
			}
		}
	}
}

func TestRandomSubsetProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n, k := 1+rng.Intn(20), 1+rng.Intn(25)
		s := randomSubset(rng, n, k)
		want := k
		if want > n {
			want = n
		}
		if len(s) != want {
			t.Fatalf("len = %d, want %d", len(s), want)
		}
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				t.Fatalf("not strictly increasing: %v", s)
			}
		}
	}
}

func TestMultiPassPlusMonotone(t *testing.T) {
	inst := workingExampleInstance()
	cfg1 := Config{M: 3, Lambda: 1, Mu: 1, Passes: 1}
	cfg3 := Config{M: 3, Lambda: 1, Mu: 1, Passes: 3}
	one, _ := (CompaReSetSPlus{}).Select(inst, cfg1)
	three, _ := (CompaReSetSPlus{}).Select(inst, cfg3)
	if three.Objective > one.Objective+1e-9 {
		t.Errorf("more passes worsened Eq5: %v > %v", three.Objective, one.Objective)
	}
}
