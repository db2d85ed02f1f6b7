package opinion

import (
	"comparesets/internal/linalg"
	"comparesets/internal/model"
)

// Features is a review list's share of the Integer-Regression design and
// targets under a scheme: the non-zeros of every review's opinion and
// aspect columns, and the list's own opinion and aspect vectors. For an
// item's full review list Rᵢ these are the design columns of its
// regression and its targets τᵢ = π(Rᵢ) and φ(Rᵢ). None of it depends on
// a request, so a corpus-resident store computes it once per (item,
// scheme) and shares it read-only.
type Features struct {
	// Op holds column j = s.Column(reviews[j], z); Asp holds column j =
	// AspectColumn(reviews[j], z). Both keep only the non-zeros.
	Op, Asp *linalg.SparseColumns
	// Tau is s.Vector(reviews, z); Phi is AspectVector(reviews, z).
	Tau, Phi linalg.Vector
}

// NewFeatures computes the features of reviews under s.
func NewFeatures(s Scheme, reviews []*model.Review, z int) Features {
	op, asp := Columns(s, reviews, z)
	return Features{Op: op, Asp: asp, Tau: s.Vector(reviews, z), Phi: AspectVector(reviews, z)}
}

// Columns returns the sparse opinion and aspect columns of reviews under s,
// one column per review, each run sized exactly.
func Columns(s Scheme, reviews []*model.Review, z int) (op, asp *linalg.SparseColumns) {
	opCols := make([]linalg.Vector, len(reviews))
	aspCols := make([]linalg.Vector, len(reviews))
	for j, r := range reviews {
		opCols[j] = s.Column(r, z)
		aspCols[j] = AspectColumn(r, z)
	}
	return linalg.SparseFromColumns(s.Dim(z), opCols), linalg.SparseFromColumns(z, aspCols)
}

// Bytes returns the bytes the features hold: both columns' runs and both
// vectors.
func (f *Features) Bytes() int {
	return f.Op.Bytes() + f.Asp.Bytes() + 8*(cap(f.Tau)+cap(f.Phi))
}
