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
			f, ok := s.ItemFeatures(it, sch, z)
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
				f, ok := s.ItemFeatures(c.Items[id], sch, z)
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
				f, ok := s.ItemFeatures(next.Items[id], sch, z)
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
	f1, _ := s.ItemFeatures(it, opinion.Binary{}, z)
	f2, _ := s.ItemFeatures(it, opinion.Binary{}, z)
	if f1 != f2 || f1.Op != f2.Op || &f1.Tau[0] != &f2.Tau[0] {
		t.Error("repeated lookup did not return the memoized features")
	}
	// Distinct schemes are distinct entries.
	f3, _ := s.ItemFeatures(it, opinion.ThreePolarity{}, z)
	if f3.Op.Rows == f1.Op.Rows {
		t.Error("3-polarity columns should have a different dim than binary")
	}
}

func TestItemColumnsRejectsForeignItems(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	z := c.Aspects.Len()
	foreign := &model.Item{ID: "p0"} // same ID, different pointer
	if _, ok := s.ItemFeatures(foreign, opinion.Binary{}, z); ok {
		t.Error("foreign item pointer accepted")
	}
	if _, ok := s.ItemFeatures(c.Items["p0"], opinion.Binary{}, z+1); ok {
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
				f, ok := s.ItemFeatures(it, sch, z)
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
// recompute features per request.
func TestSelectionsIdenticalWithStore(t *testing.T) {
	c := testCorpus(t)
	s := New(c)
	inst, err := instanceOf(c)
	if err != nil {
		t.Fatal(err)
	}
	base := core.Config{M: 3, Lambda: 1, Mu: 0.2}
	withStore := base
	withStore.Features = s
	for _, sel := range []core.Selector{core.CompaReSetS{}, core.CompaReSetSPlus{}} {
		a, err := sel.Select(inst, base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sel.Select(inst, withStore)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Indices, b.Indices) || a.Objective != b.Objective {
			t.Errorf("%s: selection differs with feature store: %+v vs %+v", sel.Name(), a, b)
		}
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
		sinkFeatures, _ = s.ItemFeatures(it, opinion.Binary{}, z)
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
	if _, ok := s.ItemFeatures(it, sch, z); ok {
		t.Fatal("ItemFeatures ok under injected fill fault, want decline")
	}
	// The fault self-disarmed: the next touch fills and serves normally.
	f, ok := s.ItemFeatures(it, sch, z)
	if !ok || f.Op.Cols() != len(it.Reviews) || f.Asp.Cols() != len(it.Reviews) {
		t.Fatalf("post-fault fill: ok=%v", ok)
	}
	// Already-resident entries are immune to fill faults (nothing to fill).
	faultinject.Arm(faultinject.PointFeatstoreFill, faultinject.Fault{Mode: faultinject.ModeError})
	if _, ok := s.ItemFeatures(it, sch, z); !ok {
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
			f, ok := s.ItemFeatures(it, sch, z)
			if !ok {
				t.Fatalf("%s/%s: not ok", sch.Name(), id)
			}
			if want := sch.Vector(it.Reviews, z); !reflect.DeepEqual(f.Tau, want) {
				t.Errorf("%s/%s: tau = %v want %v", sch.Name(), id, f.Tau, want)
			}
			if want := opinion.AspectVector(it.Reviews, z); !reflect.DeepEqual(f.Phi, want) {
				t.Errorf("%s/%s: phi = %v want %v", sch.Name(), id, f.Phi, want)
			}
			f2, _ := s.ItemFeatures(it, sch, z)
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
	f1Before, _ := s.ItemFeatures(oldP1, sch, z)

	next, m := mutate(t, c)
	computed, reused := s.Apply(next, m)
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
	if _, ok := s.ItemFeatures(oldP0, sch, z); ok {
		t.Error("stale item snapshot still resolves after Apply")
	}
	newP0 := next.Items["p0"]
	f, ok := s.ItemFeatures(newP0, sch, z)
	if !ok {
		t.Fatal("new snapshot not served")
	}
	checkRuns(t, "new p0", f, newP0.Reviews, sch, z)
	// Untouched items keep the same features (same backing runs).
	f1After, ok := s.ItemFeatures(oldP1, sch, z)
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
	f, ok := s.ItemFeatures(m.New, sch, z)
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
	computed, reused := s.Apply(next, m)
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
	computed, reused = s.Apply(after, m)
	if computed != 1 || reused != len(after.Items["p0"].Reviews)-1 {
		t.Errorf("update: computed=%d reused=%d", computed, reused)
	}
	it := after.Items["p0"]
	f, ok := s.ItemFeatures(it, sch, z)
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
	before, ok := s.ItemFeatures(c.Items["p0"], sch, z)
	if !ok {
		t.Fatal("targets not served")
	}
	next, m := mutate(t, c)
	s.Apply(next, m)
	after, ok := s.ItemFeatures(next.Items["p0"], sch, z)
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
