package core

import (
	"comparesets/internal/linalg"
	"comparesets/internal/regress"
)

// TemplateKind names a per-item regression design. The kinds are ordered
// by how many of the blocks op×1, asp×λ, asp×√(n−1)·μ they stack.
type TemplateKind uint8

const (
	TemplateCRS  TemplateKind = iota // CRS: [op]
	TemplateBase                     // CompaReSetS: [op; λ·asp]
	TemplatePlus                     // CompaReSetS+: [op; λ·asp; √(n−1)·μ·asp]
)

// TemplateKey names one of an item's regression templates by all its
// design depends on besides the item's review columns (whose feature
// entry already keys scheme, z and item snapshot): the kind, λ and the
// collapsed μ-block scale √(n−1)·μ (0 for kinds without the block).
type TemplateKey struct {
	Kind   TemplateKind
	Lambda float64
	MuW    float64
}

// Templates is one item's table of immutable regression templates under
// one scheme, kept by the FeatureSource beside the item's features. A
// template never depends on the request's target, so later selections
// over a corpus skip the items' dedup and Gram products. Callers solve on
// a regress.Problem.Share, so selections may share a table concurrently.
type Templates interface {
	// Template returns the template stored under k, or nil.
	Template(k TemplateKey) *regress.Problem
	// Keep stores p under k unless a template is stored there already,
	// and returns the stored one (p unstored if the table declines).
	Keep(k TemplateKey, p *regress.Problem) *regress.Problem
}

// template returns a share of item i's template under k from the table
// served with the item, building it over op and asp and keeping it there
// on a miss. Without a table, the built template is the request's own.
func (t *Targets) template(i int, k TemplateKey, op, asp *linalg.SparseColumns) *regress.Problem {
	tab := t.tables[i]
	if tab != nil {
		if p := tab.Template(k); p != nil {
			return p.Share()
		}
	}
	blocks := []regress.Block{{Cols: op, Scale: 1}, {Cols: asp, Scale: k.Lambda}, {Cols: asp, Scale: k.MuW}}
	p := regress.NewBlockProblem(blocks[:k.Kind+1]...)
	if tab == nil {
		return p
	}
	return tab.Keep(k, p).Share()
}
