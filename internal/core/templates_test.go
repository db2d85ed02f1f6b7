package core

import (
	"reflect"
	"sync"
	"testing"

	"comparesets/internal/model"
	"comparesets/internal/opinion"
	"comparesets/internal/regress"
)

// tableSource is a minimal FeatureSource: it computes each item's features
// on every lookup and keeps one template table per (item, scheme), shared
// by every selection that uses the source.
type tableSource struct {
	mu     sync.Mutex
	tables map[string]*mapTemplates
}

func (s *tableSource) ItemFeatures(it *model.Item, sch opinion.Scheme, z int) (*opinion.Features, Templates, bool) {
	f := opinion.NewFeatures(sch, it.Reviews, z)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tables == nil {
		s.tables = map[string]*mapTemplates{}
	}
	k := it.ID + "/" + sch.Name()
	tab := s.tables[k]
	if tab == nil {
		tab = &mapTemplates{m: map[TemplateKey]*regress.Problem{}}
		s.tables[k] = tab
	}
	return &f, tab, true
}

// kept counts the templates stored across every table, and hits the
// lookups that found one.
func (s *tableSource) kept() (kept, hits int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, tab := range s.tables {
		tab.mu.Lock()
		kept += len(tab.m)
		hits += tab.hits
		tab.mu.Unlock()
	}
	return kept, hits
}

type mapTemplates struct {
	mu   sync.Mutex
	m    map[TemplateKey]*regress.Problem
	hits int
}

func (t *mapTemplates) Template(k TemplateKey) *regress.Problem {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.m[k]
	if p != nil {
		t.hits++
	}
	return p
}

func (t *mapTemplates) Keep(k TemplateKey, p *regress.Problem) *regress.Problem {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev := t.m[k]; prev != nil {
		return prev
	}
	t.m[k] = p
	return p
}

// Template tables shared across selections are a pure accelerator:
// selections must be identical with and without them, on the cold pass
// that fills them and on warm passes that hit them, across schemes and
// worker counts.
func TestSelectionsIdenticalWithSharedProblemCache(t *testing.T) {
	inst := workingExampleInstance()
	for _, sch := range opinion.Schemes() {
		src := &tableSource{}
		for _, workers := range []int{1, 0} {
			base := Config{M: 3, Lambda: 1, Mu: 0.2, Scheme: sch, Workers: workers}
			shared := base
			shared.Features = src
			for _, sel := range []Selector{CompaReSetS{}, CompaReSetSPlus{}} {
				want, err := sel.Select(inst, base)
				if err != nil {
					t.Fatal(err)
				}
				// Two shared runs: the first fills the tables (or hits
				// templates left by the other worker count — the key
				// ignores workers), the second is all hits.
				for pass := 0; pass < 2; pass++ {
					got, err := sel.Select(inst, shared)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Indices, want.Indices) || got.Objective != want.Objective {
						t.Errorf("%s/%s workers=%d pass %d: selection differs with shared templates: %+v vs %+v",
							sel.Name(), sch.Name(), workers, pass, got, want)
					}
				}
			}
		}
		if kept, hits := src.kept(); kept == 0 || hits == 0 {
			t.Errorf("%s: %d templates kept, %d hits", sch.Name(), kept, hits)
		}
	}
}
