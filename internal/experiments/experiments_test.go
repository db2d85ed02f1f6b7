package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"comparesets/internal/core"
)

var (
	wlOnce sync.Once
	wl     *Workload
	wlErr  error
)

// testWorkload builds one Small workload shared by every test in the
// package (construction dominates test time otherwise).
func testWorkload(t *testing.T) *Workload {
	t.Helper()
	wlOnce.Do(func() {
		wl, wlErr = NewWorkload(42, Small, 6)
	})
	if wlErr != nil {
		t.Fatal(wlErr)
	}
	return wl
}

func TestWorkloadDeterminism(t *testing.T) {
	// Two workloads with the same seed must agree bit-for-bit on dataset
	// statistics and selection outcomes (reproducibility guarantee of
	// DESIGN.md).
	a, err := NewWorkload(7, Small, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorkload(7, Small, 4)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := Table2(a), Table2(b)
	for i := range ta.Rows {
		if ta.Rows[i] != tb.Rows[i] {
			t.Fatalf("Table2 row %d differs: %+v vs %+v", i, ta.Rows[i], tb.Rows[i])
		}
	}
	sa, err := a.RunSelector(0, core.CompaReSetSPlus{}, Config(3))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.RunSelector(0, core.CompaReSetSPlus{}, Config(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sa {
		if sa[i].Objective != sb[i].Objective {
			t.Fatalf("instance %d objectives differ: %v vs %v", i, sa[i].Objective, sb[i].Objective)
		}
	}
}

func TestNewWorkloadShape(t *testing.T) {
	w := testWorkload(t)
	if len(w.Corpora) != 3 || len(w.Instances) != 3 {
		t.Fatalf("corpora = %d, instances = %d", len(w.Corpora), len(w.Instances))
	}
	names := w.DatasetNames()
	if names[0] != "Cellphone" || names[1] != "Toy" || names[2] != "Clothing" {
		t.Errorf("names = %v", names)
	}
	for ds, insts := range w.Instances {
		if len(insts) == 0 || len(insts) > int(Small) {
			t.Errorf("dataset %d: %d instances", ds, len(insts))
		}
		for _, inst := range insts {
			if inst.NumItems() < 3 || inst.NumItems() > 7 {
				t.Errorf("instance has %d items (maxComparative=6)", inst.NumItems())
			}
		}
	}
}

func TestRunSelectorMemoizes(t *testing.T) {
	w := testWorkload(t)
	a, err := w.RunSelector(0, core.CRS{}, Config(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.RunSelector(0, core.CRS{}, Config(3))
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("selections not memoized")
	}
	c, err := w.RunSelector(0, core.CRS{}, Config(5))
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] == &c[0] {
		t.Error("different m shared a cache entry")
	}
}

func TestTable2(t *testing.T) {
	w := testWorkload(t)
	res := Table2(w)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Products == 0 || r.Reviews == 0 || r.TargetProducts == 0 {
			t.Errorf("row %+v has zero fields", r)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Cellphone") {
		t.Error("render missing Cellphone")
	}
}

func TestTable3ShapeAndOrdering(t *testing.T) {
	w := testWorkload(t)
	res, err := Table3(w, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 15 { // 3 datasets × 5 algorithms
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Shape check per dataset: CompaReSetS+ must beat Random on ROUGE-L
	// for both measurements, and all means must be positive.
	byKey := map[string]Table3Row{}
	for _, row := range res.Rows {
		byKey[row.Dataset+"/"+row.Algorithm] = row
		if row.TargetVs[0].Align.RL <= 0 || row.Among[0].Align.RL <= 0 {
			t.Errorf("%s/%s: non-positive ROUGE-L", row.Dataset, row.Algorithm)
		}
	}
	for _, ds := range w.DatasetNames() {
		plus := byKey[ds+"/CompaReSetS+"]
		random := byKey[ds+"/Random"]
		if plus.TargetVs[0].Align.RL <= random.TargetVs[0].Align.RL {
			t.Errorf("%s: CompaReSetS+ RL %.2f ≤ Random %.2f (target-vs)",
				ds, plus.TargetVs[0].Align.RL, random.TargetVs[0].Align.RL)
		}
		if plus.Among[0].Align.RL <= random.Among[0].Align.RL {
			t.Errorf("%s: CompaReSetS+ RL %.2f ≤ Random %.2f (among)",
				ds, plus.Among[0].Align.RL, random.Among[0].Align.RL)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Among Items") {
		t.Error("render missing part b")
	}
}

func TestTable4Shape(t *testing.T) {
	w := testWorkload(t)
	res, err := Table4(w, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schemes) != 3 || len(res.Algorithms) != 4 {
		t.Fatalf("schemes = %v algorithms = %v", res.Schemes, res.Algorithms)
	}
	for ai := range res.Algorithms {
		for si := range res.Schemes {
			if res.RL[ai][si] <= 0 {
				t.Errorf("RL[%d][%d] = %v", ai, si, res.RL[ai][si])
			}
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "unary-scale") {
		t.Error("render missing scheme")
	}
}

func TestTable4WithLearnedScheme(t *testing.T) {
	w := testWorkload(t)
	res, err := Table4WithLearned(w, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schemes) != 4 || res.Schemes[3] != "efm-learned" {
		t.Fatalf("schemes = %v", res.Schemes)
	}
	for ai := range res.Algorithms {
		if res.RL[ai][3] <= 0 {
			t.Errorf("learned scheme RL[%d] = %v", ai, res.RL[ai][3])
		}
	}
}

func TestTable5GreedyNearOptimal(t *testing.T) {
	w := testWorkload(t)
	res, err := Table5(w, []int{3}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.OptimalPercent < 99 {
			t.Errorf("%s k=%d: optimal%% = %v (1s budget on tiny graphs)", row.Dataset, row.K, row.OptimalPercent)
		}
		if row.GreedyRatio > 1e-9 {
			t.Errorf("%s: greedy ratio %v > 0 (cannot beat a proven optimum)", row.Dataset, row.GreedyRatio)
		}
		if row.GreedyRatio < -5 {
			t.Errorf("%s: greedy ratio %v unexpectedly poor", row.Dataset, row.GreedyRatio)
		}
		if row.RandomRatio > row.GreedyRatio+1e-9 {
			t.Errorf("%s: random ratio %v better than greedy %v", row.Dataset, row.RandomRatio, row.GreedyRatio)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "#Optimal Solution") {
		t.Error("render missing header")
	}
}

func TestTable6OrderingShape(t *testing.T) {
	w := testWorkload(t)
	res, err := Table6(w, []int{3}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 { // 3 datasets × 4 solvers
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byKey := map[string]Table6Row{}
	for _, row := range res.Rows {
		byKey[row.Dataset+"/"+row.Solver] = row
	}
	for _, ds := range w.DatasetNames() {
		ilp := byKey[ds+"/TargetHkS_ILP"]
		random := byKey[ds+"/Random"]
		if ilp.Among[0].RL < random.Among[0].RL-0.5 {
			t.Errorf("%s: ILP among-items RL %.2f well below Random %.2f",
				ds, ilp.Among[0].RL, random.Among[0].RL)
		}
	}
}

func TestTable7Shape(t *testing.T) {
	w := testWorkload(t)
	res, err := Table7(w, 3, 5, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byAlg := map[string]Table7Row{}
	for _, row := range res.Rows {
		byAlg[row.Algorithm] = row
		for _, q := range []float64{row.Q1, row.Q2, row.Q3} {
			if q < 1 || q > 5 {
				t.Errorf("%s: Likert mean %v out of range", row.Algorithm, q)
			}
		}
	}
	plus, random := byAlg["CompaReSetS+"], byAlg["Random"]
	if plus.Q1 < random.Q1 || plus.Q3 < random.Q3 {
		t.Errorf("CompaReSetS+ (%v/%v) should not trail Random (%v/%v) on Q1/Q3",
			plus.Q1, plus.Q3, random.Q1, random.Q3)
	}
	// α ordering is noisy with only 9 examples (the paper flags its sample
	// as too small for testing); just require sane values.
	for _, row := range res.Rows {
		if row.Alpha < -1 || row.Alpha > 1 {
			t.Errorf("%s: alpha %v out of range", row.Algorithm, row.Alpha)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Krippendorff") {
		t.Error("render missing alpha column")
	}
}

func TestTableExtended(t *testing.T) {
	w := testWorkload(t)
	res, err := TableExtended(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 21 { // 3 datasets × 7 selectors
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byKey := map[string]ExtendedRow{}
	for _, row := range res.Rows {
		byKey[row.Dataset+"/"+row.Algorithm] = row
		for name, v := range map[string]float64{
			"aspcov": row.AspectCoverage, "opincov": row.OpinionCoverage,
			"divers": row.Diversity, "repres": row.Representativeness,
		} {
			if v < 0 || v > 1+1e-9 {
				t.Errorf("%s/%s: %s = %v out of [0,1]", row.Dataset, row.Algorithm, name, v)
			}
		}
	}
	// Family axes: set-cover wins its own coverage metric vs Random on
	// every dataset.
	for _, ds := range w.DatasetNames() {
		comp := byKey[ds+"/Comprehensive"]
		random := byKey[ds+"/Random"]
		if comp.AspectCoverage <= random.AspectCoverage {
			t.Errorf("%s: Comprehensive coverage %v ≤ Random %v", ds, comp.AspectCoverage, random.AspectCoverage)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Comprehensive") {
		t.Error("render missing baseline")
	}
	csvShape(t, "extended", res)
}

func TestFigure5Sweeps(t *testing.T) {
	w := testWorkload(t)
	a, err := Figure5a(w, []float64{0.1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Param != "lambda" || len(a.RL) != 3 || len(a.RL[0]) != 2 {
		t.Fatalf("sweep shape: %+v", a)
	}
	b, err := Figure5b(w, []float64{0.1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for ds := range b.RL {
		for vi := range b.RL[ds] {
			if b.RL[ds][vi] <= 0 {
				t.Errorf("mu sweep RL[%d][%d] = %v", ds, vi, b.RL[ds][vi])
			}
		}
	}
	var buf bytes.Buffer
	a.Render(&buf)
	if !strings.Contains(buf.String(), "lambda") {
		t.Error("render missing param name")
	}
}

func TestFigure6Buckets(t *testing.T) {
	w := testWorkload(t)
	res, err := Figure6(w, 0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Buckets) == 0 {
		t.Fatal("no buckets")
	}
	total := 0
	for _, b := range res.Buckets {
		total += b.Instances
		if b.Lo > b.Hi {
			t.Errorf("bucket bounds inverted: %+v", b)
		}
	}
	if total != len(w.Instances[0]) {
		t.Errorf("bucket population %d != instances %d", total, len(w.Instances[0]))
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "gap over Random") {
		t.Error("render missing title")
	}
}

func TestFigure7RuntimeShape(t *testing.T) {
	w := testWorkload(t)
	ns := []int{3, 6}
	res, err := Figure7(w, 0, ns, []int{3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 8 { // 2 ns × 1 m × 4 algorithms
		t.Fatalf("points = %d", len(res.Points))
	}
	get := func(alg string, n int) RuntimePoint {
		for _, p := range res.Points {
			if p.Algorithm == alg && p.NumItems == n {
				return p
			}
		}
		t.Fatalf("missing point %s n=%d", alg, n)
		return RuntimePoint{}
	}
	// The runtime claim stated as work, which machine load cannot move:
	// CompaReSetS solves once per item with reviews, and CompaReSetS+ adds
	// one sweep pass (Config leaves Passes at its default of 1) that
	// solves every such item again.
	for _, n := range ns {
		var items uint64
		for _, inst := range widenedInstances(w, 0, n, 2) {
			for _, it := range inst.Items {
				if len(it.Reviews) > 0 {
					items++
				}
			}
		}
		if got := get("CompaReSetS", n).Solves; got != items {
			t.Errorf("n=%d: CompaReSetS ran %d solves, want %d (one per item)", n, got, items)
		}
		if got := get("CompaReSetS+", n).Solves; got != 2*items {
			t.Errorf("n=%d: CompaReSetS+ ran %d solves, want %d (base solves plus one sweep)", n, got, 2*items)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "runtime") || !strings.Contains(buf.String(), "solves") {
		t.Error("render missing header")
	}
}

func TestFigure11InfoLossDecreasesWithM(t *testing.T) {
	w := testWorkload(t)
	res, err := Figure11(w, 0, []int{1, 3, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.LossTarget > first.LossTarget {
		t.Errorf("target loss grew with m: %v → %v", first.LossTarget, last.LossTarget)
	}
	if last.CosTarget < first.CosTarget {
		t.Errorf("target cosine fell with m: %v → %v", first.CosTarget, last.CosTarget)
	}
	for _, p := range res.Points {
		if p.LossAll < p.LossTarget-1e-9 {
			// Comparative items' selections are skewed toward the target,
			// so all-items loss should not be materially lower.
			t.Errorf("m=%d: all-items loss %v < target loss %v", p.M, p.LossAll, p.LossTarget)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "information loss") {
		t.Error("render missing title")
	}
}

func TestCaseStudies(t *testing.T) {
	w := testWorkload(t)
	studies, err := CaseStudies(w, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 3 {
		t.Fatalf("studies = %d", len(studies))
	}
	for _, cs := range studies {
		if len(cs.Items) != 3 {
			t.Errorf("%s: %d items", cs.Dataset, len(cs.Items))
		}
		if !cs.Items[0].IsTarget {
			t.Errorf("%s: first item is not the target", cs.Dataset)
		}
		for _, item := range cs.Items {
			if len(item.Reviews) == 0 || len(item.Reviews) > 3 {
				t.Errorf("%s/%s: %d reviews", cs.Dataset, item.Title, len(item.Reviews))
			}
			for _, r := range item.Reviews {
				if r.Text == "" {
					t.Errorf("%s/%s: empty review text", cs.Dataset, item.Title)
				}
			}
		}
		var buf bytes.Buffer
		cs.Render(&buf)
		if !strings.Contains(buf.String(), "this item") {
			t.Error("render missing target marker")
		}
	}
}

func TestAlignmentHelpersRestrictedItems(t *testing.T) {
	w := testWorkload(t)
	sels, err := w.RunSelector(0, core.CompaReSetSPlus{}, Config(3))
	if err != nil {
		t.Fatal(err)
	}
	inst := w.Instances[0][0]
	sets := sels[0].Reviews(inst)
	full := AlignAmongItems(sets, nil)
	restricted := AlignAmongItems(sets, []int{0, 1})
	if full.RL.F1 == 0 && restricted.RL.F1 == 0 {
		t.Skip("degenerate instance with no overlap")
	}
	// Restricting items must change the pair population (usually scores).
	if inst.NumItems() > 2 && full == restricted {
		t.Error("restriction had no effect")
	}
}

func TestSelectionQualityBounds(t *testing.T) {
	w := testWorkload(t)
	sels, err := w.RunSelector(0, core.CompaReSetSPlus{}, Config(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sels {
		o, r, c := selectionQuality(w.Instances[0][i], Config(3), sels[i], nil)
		for name, v := range map[string]float64{"overlap": o, "repr": r, "comp": c} {
			if v < 0 || v > 1+1e-9 {
				t.Errorf("instance %d: %s = %v out of [0,1]", i, name, v)
			}
		}
	}
}
