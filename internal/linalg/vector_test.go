package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorAddSub(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Add(w); !got.ApproxEqual(Vector{5, 7, 9}, 0) {
		t.Errorf("Add = %v", got)
	}
	if got := w.Sub(v); !got.ApproxEqual(Vector{3, 3, 3}, 0) {
		t.Errorf("Sub = %v", got)
	}
	v.AddInPlace(w)
	if !v.ApproxEqual(Vector{5, 7, 9}, 0) {
		t.Errorf("AddInPlace = %v", v)
	}
	v.SubInPlace(w)
	if !v.ApproxEqual(Vector{1, 2, 3}, 0) {
		t.Errorf("SubInPlace = %v", v)
	}
}

func TestVectorDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Vector{1, 2}.Dot(Vector{1})
}

func TestVectorScaleDotNorm(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Norm2(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Norm2 = %v", got)
	}
	if got := v.Norm1(); !almostEqual(got, 7, 1e-12) {
		t.Errorf("Norm1 = %v", got)
	}
	if got := v.Scale(2); !got.ApproxEqual(Vector{6, 8}, 0) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(Vector{1, 1}); !almostEqual(got, 7, 1e-12) {
		t.Errorf("Dot = %v", got)
	}
	v.AXPY(0.5, Vector{2, 2})
	if !v.ApproxEqual(Vector{4, 5}, 1e-12) {
		t.Errorf("AXPY = %v", v)
	}
}

func TestVectorSumMax(t *testing.T) {
	v := Vector{-1, 7, 3}
	if got := v.Sum(); !almostEqual(got, 9, 1e-12) {
		t.Errorf("Sum = %v", got)
	}
	if got := v.Max(); !almostEqual(got, 7, 0) {
		t.Errorf("Max = %v", got)
	}
	if got := (Vector{}).Max(); !math.IsInf(got, -1) {
		t.Errorf("empty Max = %v, want -Inf", got)
	}
}

func TestSquaredDistanceMatchesPaperExample(t *testing.T) {
	// Δ(x, y) = Σ (x_i - y_i)²  (Eq. 2)
	x := Vector{1, 0, 2}
	y := Vector{0, 0, 0}
	if got := SquaredDistance(x, y); !almostEqual(got, 5, 1e-12) {
		t.Errorf("SquaredDistance = %v, want 5", got)
	}
	if got := SquaredDistance(x, x); got != 0 {
		t.Errorf("self distance = %v, want 0", got)
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine(Vector{1, 0}, Vector{0, 1}); !almostEqual(got, 0, 1e-12) {
		t.Errorf("orthogonal cosine = %v", got)
	}
	if got := Cosine(Vector{2, 2}, Vector{1, 1}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("parallel cosine = %v", got)
	}
	if got := Cosine(Vector{0, 0}, Vector{1, 1}); got != 0 {
		t.Errorf("zero-vector cosine = %v, want 0", got)
	}
}

func TestConcat(t *testing.T) {
	got := Concat(Vector{1}, Vector{2, 3}, Vector{})
	if !got.ApproxEqual(Vector{1, 2, 3}, 0) {
		t.Errorf("Concat = %v", got)
	}
}

func TestNormalized(t *testing.T) {
	v := Vector{1, 3}
	got := v.Normalized()
	if !got.ApproxEqual(Vector{0.25, 0.75}, 1e-12) {
		t.Errorf("Normalized = %v", got)
	}
	if z := (Vector{0, 0}).Normalized(); !z.ApproxEqual(Vector{0, 0}, 0) {
		t.Errorf("zero Normalized = %v", z)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Error("Clone aliases original storage")
	}
}

// Property: squared distance is symmetric and non-negative; triangle-ish via
// Cauchy-Schwarz on the dot product.
func TestSquaredDistanceProperties(t *testing.T) {
	f := func(a, b [8]float64) bool {
		for i := range a {
			// Keep magnitudes finite after squaring.
			a[i] = math.Mod(a[i], 1e6)
			b[i] = math.Mod(b[i], 1e6)
			if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
				return true
			}
		}
		v, w := Vector(a[:]), Vector(b[:])
		d1, d2 := SquaredDistance(v, w), SquaredDistance(w, v)
		return d1 >= 0 && almostEqual(d1, d2, 1e-9*(1+math.Abs(d1)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: |cosine| <= 1 for all inputs.
func TestCosineBounded(t *testing.T) {
	f := func(a, b [6]float64) bool {
		for i := range a {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				return true
			}
			// Clamp magnitudes to avoid overflow in the product.
			a[i] = math.Mod(a[i], 1e6)
			b[i] = math.Mod(b[i], 1e6)
		}
		c := Cosine(Vector(a[:]), Vector(b[:]))
		return c <= 1+1e-9 && c >= -1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: normalization produces an L1-unit vector for nonzero input.
func TestNormalizedUnitNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		v := NewVector(1 + rng.Intn(10))
		for i := range v {
			v[i] = rng.Float64()*10 - 5
		}
		if v.Norm1() == 0 {
			continue
		}
		if got := v.Normalized().Norm1(); !almostEqual(got, 1, 1e-9) {
			t.Fatalf("Normalized L1 = %v", got)
		}
	}
}
