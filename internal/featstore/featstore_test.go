package featstore

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"comparesets/internal/core"
	"comparesets/internal/datagen"
	"comparesets/internal/faultinject"
	"comparesets/internal/linalg"
	"comparesets/internal/model"
	"comparesets/internal/opinion"
	"comparesets/internal/regress"
)

// The store must satisfy the injection point core exposes.
var _ core.FeatureSource = (*Store)(nil)

func testCorpus(tb testing.TB) *model.Corpus {
	tb.Helper()
	c := model.NewCorpus("Test", model.NewVocabulary([]string{"a0", "a1", "a2"}))
	for i := 0; i < 12; i++ {
		it := &model.Item{ID: fmt.Sprintf("p%d", i), Title: fmt.Sprintf("P%d", i)}
		for j := 0; j < 7; j++ {
			pol := model.Positive
			if (i+j)%2 == 1 {
				pol = model.Negative
			}
			it.Reviews = append(it.Reviews, &model.Review{
				ID: fmt.Sprintf("p%d-r%d", i, j), ItemID: it.ID, Rating: 1 + (i+j)%5,
				Mentions: []model.Mention{
					{Aspect: j % 3, Polarity: pol, Score: 1},
					{Aspect: (i + j) % 3, Polarity: model.Positive, Score: 0.5},
				},
			})
		}
		c.AddItem(it)
	}
	return c
}

// checkRuns fails unless f's runs hold exactly the non-zeros of
// sch.Column and opinion.AspectColumn for every review of reviews, rows
// ascending and values bit for bit, and its targets equal sch.Vector and
// opinion.AspectVector over the list.
func checkRuns(t *testing.T, label string, f *opinion.Features, reviews []*model.Review, sch opinion.Scheme, z int) {
	t.Helper()
	if f.Op.Rows != sch.Dim(z) || f.Asp.Rows != z || f.Op.Cols() != len(reviews) || f.Asp.Cols() != len(reviews) {
		t.Fatalf("%s: op %d×%d asp %d×%d, want %d×%d and %d×%d", label,
			f.Op.Rows, f.Op.Cols(), f.Asp.Rows, f.Asp.Cols(), sch.Dim(z), len(reviews), z, len(reviews))
	}
	same := func(fam string, j int, c *linalg.SparseColumns, dense linalg.Vector) {
		t.Helper()
		var wantIdx []int32
		var wantVal []uint64
		for i, v := range dense {
			if v != 0 {
				wantIdx = append(wantIdx, int32(i))
				wantVal = append(wantVal, math.Float64bits(v))
			}
		}
		idx, val := c.Col(j)
		gotVal := make([]uint64, len(val))
		for t, v := range val {
			gotVal[t] = math.Float64bits(v)
		}
		if len(idx) != len(wantIdx) || (len(idx) > 0 && (!reflect.DeepEqual(idx, wantIdx) || !reflect.DeepEqual(gotVal, wantVal))) {
			t.Fatalf("%s review %d %s: run %v %v, want non-zeros %v of %v", label, j, fam, idx, val, wantIdx, dense)
		}
	}
	for j, r := range reviews {
		same("op", j, f.Op, sch.Column(r, z))
		same("asp", j, f.Asp, opinion.AspectColumn(r, z))
	}
	if want := sch.Vector(reviews, z); !reflect.DeepEqual(f.Tau, want) {
		t.Fatalf("%s: tau = %v want %v", label, f.Tau, want)
	}
	if want := opinion.AspectVector(reviews, z); !reflect.DeepEqual(f.Phi, want) {
		t.Fatalf("%s: phi = %v want %v", label, f.Phi, want)
	}
}

func TestItemColumnsMatchDirectComputation(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	z := c.Aspects.Len()
	for _, sch := range opinion.Schemes() {
		for _, id := range c.ItemIDs() {
			it := c.Items[id]
			f, _, ok := s.ItemFeatures(it, sch, z)
			if !ok {
				t.Fatalf("%s/%s: not ok", sch.Name(), id)
			}
			checkRuns(t, sch.Name()+"/"+id, f, it.Reviews, sch, z)
		}
	}
}

// The sparse runs hold the non-zeros of every review column of the three
// synthetic corpora under every scheme, and keep holding them after append,
// update and remove rebuilds, incremental (Apply) and lazy alike.
func TestRunsMatchSchemeColumnsOnSyntheticCorpora(t *testing.T) {
	for _, cfg := range datagen.DefaultConfigs(7) {
		c, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		z := c.Aspects.Len()
		s := New(c)
		for _, sch := range opinion.Schemes() {
			s.Precompute(sch)
			for _, id := range c.ItemIDs() {
				f, _, ok := s.ItemFeatures(c.Items[id], sch, z)
				if !ok {
					t.Fatalf("%s/%s/%s: not ok", c.Category, sch.Name(), id)
				}
				checkRuns(t, c.Category+"/"+sch.Name()+"/"+id, f, c.Items[id].Reviews, sch, z)
			}
		}
		ids := c.ItemIDs()
		id := ids[0]
		donor := c.Items[ids[1]].Reviews
		steps := []func(*model.Corpus) (*model.Mutation, error){
			func(n *model.Corpus) (*model.Mutation, error) {
				r := *donor[0]
				r.ID, r.ItemID = "appended", id
				return n.AppendReviews(id, &r)
			},
			func(n *model.Corpus) (*model.Mutation, error) {
				r := *donor[1]
				r.ID, r.ItemID = n.Items[id].Reviews[0].ID, id
				return n.UpdateReview(id, &r)
			},
			func(n *model.Corpus) (*model.Mutation, error) {
				return n.RemoveReview(id, n.Items[id].Reviews[1].ID)
			},
		}
		for step, mutate := range steps {
			next := c.Clone()
			m, err := mutate(next)
			if err != nil {
				t.Fatal(err)
			}
			if step == 1 {
				// Rebind without Apply: the first touch rebuilds lazily.
				s.corpus.Store(next)
			} else {
				s.Apply(next, m)
			}
			for _, sch := range opinion.Schemes() {
				f, _, ok := s.ItemFeatures(next.Items[id], sch, z)
				if !ok {
					t.Fatalf("%s step %d %s: not ok", c.Category, step, sch.Name())
				}
				checkRuns(t, fmt.Sprintf("%s step %d %s", c.Category, step, sch.Name()), f, next.Items[id].Reviews, sch, z)
			}
			c = next
		}
	}
}

func TestItemColumnsMemoizes(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	z := c.Aspects.Len()
	it := c.Items[c.ItemIDs()[0]]
	f1, _, _ := s.ItemFeatures(it, opinion.Binary{}, z)
	f2, _, _ := s.ItemFeatures(it, opinion.Binary{}, z)
	if f1 != f2 || f1.Op != f2.Op || &f1.Tau[0] != &f2.Tau[0] {
		t.Error("repeated lookup did not return the memoized features")
	}
	// Distinct schemes are distinct entries.
	f3, _, _ := s.ItemFeatures(it, opinion.ThreePolarity{}, z)
	if f3.Op.Rows == f1.Op.Rows {
		t.Error("3-polarity columns should have a different dim than binary")
	}
}

func TestItemColumnsRejectsForeignItems(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	z := c.Aspects.Len()
	foreign := &model.Item{ID: "p0"} // same ID, different pointer
	if _, _, ok := s.ItemFeatures(foreign, opinion.Binary{}, z); ok {
		t.Error("foreign item pointer accepted")
	}
	if _, _, ok := s.ItemFeatures(c.Items["p0"], opinion.Binary{}, z+1); ok {
		t.Error("mismatched z accepted")
	}
}

func TestPrecomputeAndConcurrentAccess(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	z := c.Aspects.Len()
	s.Precompute(opinion.Binary{})
	if got, want := s.Len(), len(c.Items); got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	var wg sync.WaitGroup
	ids := c.ItemIDs()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				it := c.Items[ids[(w+n)%len(ids)]]
				sch := opinion.Schemes()[n%len(opinion.Schemes())]
				f, _, ok := s.ItemFeatures(it, sch, z)
				if !ok || f.Op.Cols() != len(it.Reviews) {
					t.Errorf("concurrent lookup failed for %s", it.ID)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Selections driven through the store must be identical to selections that
// recompute features per request, for every selector of the paper's
// evaluation, every scheme and both worker counts: on the cold pass that
// builds the item templates and on the warm pass that hits them.
func TestSelectionsIdenticalWithStore(t *testing.T) {
	c := testCorpus(t)
	inst, err := instanceOf(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, sch := range opinion.Schemes() {
		s := New(c)
		for _, workers := range []int{1, 0} {
			base := core.Config{M: 3, Lambda: 1, Mu: 0.2, Scheme: sch, Workers: workers}
			withStore := base
			withStore.Features = s
			for _, sel := range core.Selectors() {
				want, err := sel.Select(inst, base)
				if err != nil {
					t.Fatal(err)
				}
				// The first pass fills the tables (or hits templates left
				// by the other worker count — the key ignores workers), the
				// second is all hits.
				for pass := 0; pass < 2; pass++ {
					got, err := sel.Select(inst, withStore)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Indices, want.Indices) || got.Objective != want.Objective {
						t.Errorf("%s/%s workers=%d pass %d: selection differs with feature store: %+v vs %+v",
							sel.Name(), sch.Name(), workers, pass, got, want)
					}
				}
			}
		}
		if n, _ := s.Templates(); n == 0 {
			t.Errorf("%s: no template kept", sch.Name())
		}
	}
}

// Many selections may share one store at once: each holder solves on a
// private Problem.Share, so concurrent runs must match the sequential
// reference exactly — with every template resident, and with a budget so
// small that builds evict the templates other runs are hitting. Run under
// -race this also exercises the share/scratch split and the clock sweep.
func TestStoreConcurrentSelections(t *testing.T) {
	c := testCorpus(t)
	inst, err := instanceOf(c)
	if err != nil {
		t.Fatal(err)
	}
	selectors := core.Selectors()
	lambdas := []float64{1, 0.5, 2}
	want := make([][]*core.Selection, len(selectors))
	for i, sel := range selectors {
		for _, lambda := range lambdas {
			s, err := sel.Select(inst, core.Config{M: 3, Lambda: lambda, Mu: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], s)
		}
	}
	for _, budget := range []int{templateBudget, 1} {
		s := New(c)
		s.budget = budget
		evicted := s.m.Evictions.Value()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for n := 0; n < 10; n++ {
					i, l := (w+n)%len(selectors), (w+2*n)%len(lambdas)
					cfg := core.Config{M: 3, Lambda: lambdas[l], Mu: 0.2, Features: s}
					got, err := selectors[i].Select(inst, cfg)
					if err != nil {
						t.Error(err)
						return
					}
					if ref := want[i][l]; !reflect.DeepEqual(got.Indices, ref.Indices) || got.Objective != ref.Objective {
						t.Errorf("budget %d worker %d run %d (%s λ=%g): %+v vs %+v",
							budget, w, n, selectors[i].Name(), lambdas[l], got, ref)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		n, bytes := s.Templates()
		if bytes > budget {
			t.Errorf("budget %d: %d template bytes resident", budget, bytes)
		}
		if budget == templateBudget && (n == 0 || s.m.Evictions.Value() != evicted) {
			t.Errorf("default budget: %d templates kept, %d evicted", n, s.m.Evictions.Value()-evicted)
		}
		if budget == 1 && s.m.Evictions.Value() == evicted {
			t.Error("one-byte budget: nothing evicted")
		}
	}
}

// A second identical CRS select over store-served items builds no
// template: each item's op×1 template is kept on its entry under kind
// crs, and the answer does not move.
func TestCRSReusesStoreTemplates(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	inst, err := instanceOf(c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{M: 3, Lambda: 1, Mu: 0.2, Features: s}
	first, err := core.CRS{}.Select(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	built, _ := s.Templates()
	if built != inst.NumItems() {
		t.Fatalf("first CRS select kept %d templates for %d items", built, inst.NumItems())
	}
	z := c.Aspects.Len()
	for _, it := range inst.Items {
		_, tab, _ := s.ItemFeatures(it, opinion.Binary{}, z)
		if tab.Template(core.TemplateKey{Kind: core.TemplateCRS}) == nil {
			t.Errorf("%s: no crs template on the entry", it.ID)
		}
	}
	second, err := core.CRS{}.Select(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Templates(); n != built {
		t.Errorf("second CRS select changed the template count %d -> %d", built, n)
	}
	if !reflect.DeepEqual(first.Indices, second.Indices) || first.Objective != second.Objective {
		t.Errorf("warm CRS answer moved: %+v vs %+v", second, first)
	}
}

// keepBase builds item it's CompaReSetS template at λ and keeps it on the
// item's entry, returning the entry's table and the key.
func keepBase(t *testing.T, s *Store, it *model.Item, lambda float64) (core.Templates, core.TemplateKey) {
	t.Helper()
	f, tab, ok := s.ItemFeatures(it, opinion.Binary{}, s.z)
	if !ok {
		t.Fatalf("%s: not served", it.ID)
	}
	k := core.TemplateKey{Kind: core.TemplateBase, Lambda: lambda}
	tab.Keep(k, regress.NewBlockProblem(
		regress.Block{Cols: f.Op, Scale: 1},
		regress.Block{Cols: f.Asp, Scale: lambda},
	))
	return tab, k
}

// Past its budget a store drops cold entries' templates in clock order:
// resident template bytes never exceed the budget, a build never empties
// the store, and an entry hit between builds keeps its template.
func TestTemplateBudgetSparesHotEntries(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	ids := c.ItemIDs()
	hot, hotKey := keepBase(t, s, c.Items[ids[0]], 1)
	_, per := s.Templates()
	s.budget = 5 * per
	evicted := s.m.Evictions.Value()
	for round := 0; round < 6; round++ {
		for _, id := range ids[1:] {
			keepBase(t, s, c.Items[id], float64(2+round))
			n, bytes := s.Templates()
			if bytes > s.budget || n < 2 {
				t.Fatalf("round %d %s: %d templates, %d bytes resident (budget %d)", round, id, n, bytes, s.budget)
			}
			if hot.Template(hotKey) == nil {
				t.Fatalf("round %d %s: the hot entry lost its template", round, id)
			}
		}
	}
	if s.m.Evictions.Value() == evicted {
		t.Error("filling past the budget evicted nothing")
	}
}

var sinkProblem *regress.Problem

// A template hit allocates nothing beyond the Problem.Share the caller
// solves on: the lookup, the table and the key stay off the heap.
func TestTemplateHitAllocations(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	it := c.Items[c.ItemIDs()[0]]
	tab, k := keepBase(t, s, it, 1)
	p := tab.Template(k)
	share := testing.AllocsPerRun(100, func() { sinkProblem = p.Share() })
	hit := testing.AllocsPerRun(100, func() {
		_, tab, _ := s.ItemFeatures(it, opinion.Binary{}, s.z)
		sinkProblem = tab.Template(k).Share()
	})
	if share != 1 || hit != share {
		t.Errorf("Share allocates %v, a table hit %v; want 1 and 1", share, hit)
	}
}

// residentBytes sums what the store holds: every entry's features and
// every template.
func residentBytes(s *Store) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, e := range sh.items {
			n += e.feat.Bytes()
		}
		sh.mu.Unlock()
	}
	_, tb := s.Templates()
	return n + tb
}

// The featstore bytes gauge follows resident bytes: a mutation moves it by
// the new block's bytes less the old block's and its templates', an
// eviction by the templates dropped.
func TestBytesGaugeTracksResidentBytes(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	inst, err := instanceOf(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (core.CompaReSetSPlus{}).Select(inst, core.Config{M: 3, Lambda: 1, Mu: 0.2, Features: s}); err != nil {
		t.Fatal(err)
	}
	check := func(step string, gauge0 float64, resident0 int) {
		t.Helper()
		if got, want := s.m.Bytes.Value()-gauge0, float64(residentBytes(s)-resident0); got != want {
			t.Errorf("%s: gauge moved %g, resident bytes %g", step, got, want)
		}
	}
	gauge0, resident0 := s.m.Bytes.Value(), residentBytes(s)
	next, m := mutate(t, c)
	if _, _, dropped := s.Apply(next, m); dropped == 0 {
		t.Fatal("Apply dropped no template of the selected item")
	}
	check("Apply", gauge0, resident0)

	gauge0, resident0 = s.m.Bytes.Value(), residentBytes(s)
	evicted := s.m.Evictions.Value()
	s.budget = 1
	keepBase(t, s, next.Items["p1"], 3)
	if s.m.Evictions.Value() == evicted {
		t.Fatal("nothing evicted over a one-byte budget")
	}
	check("eviction", gauge0, resident0)
}

// Release returns both featstore gauges to where they stood before the
// store was filled, templates included, and later lookups decline.
func TestReleaseUncountsStore(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	bytes0, entries0 := s.m.Bytes.Value(), s.m.Entries.Value()
	inst, err := instanceOf(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (core.CompaReSetSPlus{}).Select(inst, core.Config{M: 3, Lambda: 1, Mu: 0.2, Features: s}); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Templates(); n == 0 || s.m.Entries.Value() == entries0 {
		t.Fatalf("select kept %d templates and moved entries by %g; want both", n, s.m.Entries.Value()-entries0)
	}
	s.Release()
	if got := s.m.Bytes.Value() - bytes0; got != 0 {
		t.Errorf("bytes gauge %+g after Release, want 0", got)
	}
	if got := s.m.Entries.Value() - entries0; got != 0 {
		t.Errorf("entries gauge %+g after Release, want 0", got)
	}
	it := c.Items[c.ItemIDs()[0]]
	if _, _, ok := s.ItemFeatures(it, opinion.Binary{}, s.z); ok {
		t.Error("a released store served features")
	}
	if s.m.Entries.Value() != entries0 || s.Len() != 0 {
		t.Errorf("a lookup after Release filled the store (Len %d)", s.Len())
	}
}

// Lookups racing Release never leave a block counted: whatever they fill
// before Release reaches their shard is retired with the rest, and later
// ones decline.
func TestReleaseDuringLookups(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	bytes0, entries0 := s.m.Bytes.Value(), s.m.Entries.Value()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, id := range c.ItemIDs() {
					s.ItemFeatures(c.Items[id], opinion.Binary{}, s.z)
				}
			}
		}()
	}
	s.Release()
	wg.Wait()
	if got := s.m.Bytes.Value() - bytes0; got != 0 {
		t.Errorf("bytes gauge %+g after Release, want 0", got)
	}
	if got := s.m.Entries.Value() - entries0; got != 0 {
		t.Errorf("entries gauge %+g after Release, want 0", got)
	}
}

// instanceOf builds an instance over the first corpus item with every other
// item as comparison.
func instanceOf(c *model.Corpus) (*model.Instance, error) {
	ids := c.ItemIDs()
	target := c.Items[ids[0]]
	target.AlsoBought = append([]string(nil), ids[1:]...)
	return c.NewInstance(target.ID, 0)
}

var sinkFeatures *opinion.Features

func BenchmarkItemColumnsWarm(b *testing.B) {
	c := testCorpus(b)
	s := New(c)
	s.Precompute(opinion.Binary{})
	it := c.Items[c.ItemIDs()[0]]
	z := c.Aspects.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFeatures, _, _ = s.ItemFeatures(it, opinion.Binary{}, z)
	}
}

func TestFillFaultFallsBackGracefully(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	c := testCorpus(t)
	s := New(c)
	z := c.Aspects.Len()
	it := c.Items[c.ItemIDs()[0]]
	sch := opinion.Binary{}

	// An injected fill fault declines the item instead of failing the
	// request: callers recompute the columns themselves.
	faultinject.Arm(faultinject.PointFeatstoreFill, faultinject.Fault{
		Mode: faultinject.ModeError, Remaining: 1,
	})
	if _, _, ok := s.ItemFeatures(it, sch, z); ok {
		t.Fatal("ItemFeatures ok under injected fill fault, want decline")
	}
	// The fault self-disarmed: the next touch fills and serves normally.
	f, _, ok := s.ItemFeatures(it, sch, z)
	if !ok || f.Op.Cols() != len(it.Reviews) || f.Asp.Cols() != len(it.Reviews) {
		t.Fatalf("post-fault fill: ok=%v", ok)
	}
	// Already-resident entries are immune to fill faults (nothing to fill).
	faultinject.Arm(faultinject.PointFeatstoreFill, faultinject.Fault{Mode: faultinject.ModeError})
	if _, _, ok := s.ItemFeatures(it, sch, z); !ok {
		t.Error("resident entry declined under fill fault")
	}
}

// ItemFeatures serves exactly the target vectors the per-request target
// pass would compute, and memoizes them.
func TestItemTargetsMatchDirectComputation(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	z := c.Aspects.Len()
	for _, sch := range opinion.Schemes() {
		for _, id := range c.ItemIDs() {
			it := c.Items[id]
			f, _, ok := s.ItemFeatures(it, sch, z)
			if !ok {
				t.Fatalf("%s/%s: not ok", sch.Name(), id)
			}
			if want := sch.Vector(it.Reviews, z); !reflect.DeepEqual(f.Tau, want) {
				t.Errorf("%s/%s: tau = %v want %v", sch.Name(), id, f.Tau, want)
			}
			if want := opinion.AspectVector(it.Reviews, z); !reflect.DeepEqual(f.Phi, want) {
				t.Errorf("%s/%s: phi = %v want %v", sch.Name(), id, f.Phi, want)
			}
			f2, _, _ := s.ItemFeatures(it, sch, z)
			if &f.Tau[0] != &f2.Tau[0] || &f.Phi[0] != &f2.Phi[0] {
				t.Errorf("%s/%s: repeated lookup did not return the memoized vectors", sch.Name(), id)
			}
		}
	}
}

// mutate appends one review to p0 via the model mutation API against a
// clone, mirroring the serving layer's copy-on-write flow.
func mutate(t *testing.T, c *model.Corpus) (*model.Corpus, *model.Mutation) {
	t.Helper()
	next := c.Clone()
	m, err := next.AppendReviews("p0", &model.Review{
		ID: "p0-new", Rating: 5,
		Mentions: []model.Mention{{Aspect: 2, Polarity: model.Positive, Score: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return next, m
}

func TestApplyRefillsOnlyTouchedColumns(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	z := c.Aspects.Len()
	sch := opinion.Schemes()[0]
	s.Precompute(sch)
	resident := s.Len()
	oldP0, oldP1 := c.Items["p0"], c.Items["p1"]
	f1Before, _, _ := s.ItemFeatures(oldP1, sch, z)

	next, m := mutate(t, c)
	computed, reused, _ := s.Apply(next, m)
	if computed != 1 {
		t.Errorf("computed = %d, want 1 (only the appended review)", computed)
	}
	if reused != len(oldP0.Reviews) {
		t.Errorf("reused = %d, want %d", reused, len(oldP0.Reviews))
	}
	if s.Len() != resident {
		t.Errorf("Len = %d, want %d (refill must replace, not grow)", s.Len(), resident)
	}

	// The old snapshot no longer resolves; the new one does, with columns
	// matching direct computation.
	if _, _, ok := s.ItemFeatures(oldP0, sch, z); ok {
		t.Error("stale item snapshot still resolves after Apply")
	}
	newP0 := next.Items["p0"]
	f, _, ok := s.ItemFeatures(newP0, sch, z)
	if !ok {
		t.Fatal("new snapshot not served")
	}
	checkRuns(t, "new p0", f, newP0.Reviews, sch, z)
	// Untouched items keep the same features (same backing runs).
	f1After, _, ok := s.ItemFeatures(oldP1, sch, z)
	if !ok {
		t.Fatal("untouched item lost residency")
	}
	if f1After != f1Before || &f1After.Op.Idx[0] != &f1Before.Op.Idx[0] {
		t.Fatal("untouched item's features were rebuilt")
	}
}

func TestLazyRebuildOnStaleEntry(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	z := c.Aspects.Len()
	sch := opinion.Schemes()[0]
	s.ItemFeatures(c.Items["p0"], sch, z) // resident block for the old snapshot

	// Rebind without Apply: the first touch of the new snapshot must refill
	// lazily instead of serving the stale block.
	next, m := mutate(t, c)
	s.corpus.Store(next)
	f, _, ok := s.ItemFeatures(m.New, sch, z)
	if !ok {
		t.Fatal("lazy rebuild: not ok")
	}
	checkRuns(t, "lazy rebuild", f, m.New.Reviews, sch, z)
}

func TestApplyAfterRemoveAndUpdate(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	z := c.Aspects.Len()
	sch := opinion.Schemes()[0]
	s.Precompute(sch)

	next := c.Clone()
	m, err := next.RemoveReview("p0", "p0-r3")
	if err != nil {
		t.Fatal(err)
	}
	computed, reused, _ := s.Apply(next, m)
	if computed != 0 || reused != len(next.Items["p0"].Reviews) {
		t.Errorf("remove: computed=%d reused=%d", computed, reused)
	}

	after := next.Clone()
	m, err = after.UpdateReview("p0", &model.Review{
		ID: "p0-r1", Rating: 1,
		Mentions: []model.Mention{{Aspect: 0, Polarity: model.Negative, Score: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	computed, reused, _ = s.Apply(after, m)
	if computed != 1 || reused != len(after.Items["p0"].Reviews)-1 {
		t.Errorf("update: computed=%d reused=%d", computed, reused)
	}
	it := after.Items["p0"]
	f, _, ok := s.ItemFeatures(it, sch, z)
	if !ok {
		t.Fatal("post-update snapshot not resident")
	}
	checkRuns(t, "post-update", f, it.Reviews, sch, z)
}

func TestApplyResetsTargets(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	z := c.Aspects.Len()
	sch := opinion.Schemes()[0]
	before, _, ok := s.ItemFeatures(c.Items["p0"], sch, z)
	if !ok {
		t.Fatal("targets not served")
	}
	next, m := mutate(t, c)
	s.Apply(next, m)
	after, _, ok := s.ItemFeatures(next.Items["p0"], sch, z)
	if !ok {
		t.Fatal("targets not served after Apply")
	}
	tauBefore, tauAfter := before.Tau, after.Tau
	if want := sch.Vector(next.Items["p0"].Reviews, z); !reflect.DeepEqual(tauAfter, want) {
		t.Errorf("tau after mutation = %v want %v", tauAfter, want)
	}
	if want := opinion.AspectVector(next.Items["p0"].Reviews, z); !reflect.DeepEqual(after.Phi, want) {
		t.Errorf("phiR after mutation = %v want %v", after.Phi, want)
	}
	if reflect.DeepEqual(tauBefore, tauAfter) {
		t.Error("tau unchanged although a 5-star review was appended")
	}
}
