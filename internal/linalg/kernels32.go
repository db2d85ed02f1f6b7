package linalg

// float32 companions to the kernels in kernels.go: the optional compact slab
// mode (internal/featstore's float32 feature slabs, internal/simgraph's
// float32 distance pass) stores vectors as []float32 — half the memory
// bandwidth per element — and accumulates in float64 so precision loss is
// bounded by the float32 representation of the inputs, not by the reduction.
// The same advancing-slice BCE shape as kernels.go applies, and the same
// `make bce-check` guard covers this file.
//
// For the feature slabs the narrowing is usually exact: opinion and aspect
// columns are small integer counts (0, 1, 2, …), all exactly representable
// in float32. General float64 inputs round to ~7 decimal digits; the
// documented tolerance for float32-vs-float64 results is a relative 1e-6 per
// accumulated term (see TestFloat32SlabTolerance in internal/featstore).

// Vector32 is a dense float32 vector (a compact slab view).
type Vector32 []float32

// NarrowKernel writes float32(src[i]) into dst. It panics if lengths differ.
func NarrowKernel(src []float64, dst []float32) {
	checkLen(len(src), len(dst))
	src = src[:len(dst)]
	for i := 0; i < len(dst) && i < len(src); i++ {
		dst[i] = float32(src[i])
	}
}

// WidenKernel writes float64(src[i]) into dst. It panics if lengths differ.
func WidenKernel(src []float32, dst []float64) {
	checkLen(len(src), len(dst))
	src = src[:len(dst)]
	for i := 0; i < len(dst) && i < len(src); i++ {
		dst[i] = float64(src[i])
	}
}

// AddWidenKernel sets y[i] += float64(x[i]) — the candidate-evaluation
// accumulation over float32 feature columns. It panics if lengths differ.
func AddWidenKernel(x []float32, y []float64) {
	checkLen(len(x), len(y))
	x = x[:len(y)]
	for len(y) >= 4 && len(x) >= 4 {
		xx := (*[4]float32)(x)
		yy := (*[4]float64)(y)
		yy[0] += float64(xx[0])
		yy[1] += float64(xx[1])
		yy[2] += float64(xx[2])
		yy[3] += float64(xx[3])
		x = x[4:]
		y = y[4:]
	}
	for i := 0; i < len(y) && i < len(x); i++ {
		y[i] += float64(x[i])
	}
}

// SqDist32Kernel returns Σᵢ (a[i]−b[i])² over float32 slabs with float64
// accumulation — the compact-mode pairwise distance of the similarity graph.
// It panics if lengths differ.
func SqDist32Kernel(a, b []float32) float64 {
	checkLen(len(a), len(b))
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 {
		x := (*[4]float32)(a)
		y := (*[4]float32)(b)
		d0 := float64(x[0]) - float64(y[0])
		d1 := float64(x[1]) - float64(y[1])
		d2 := float64(x[2]) - float64(y[2])
		d3 := float64(x[3]) - float64(y[3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		a = a[4:]
		b = b[4:]
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		d := float64(a[i]) - float64(b[i])
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// Dot32Kernel returns Σᵢ a[i]·b[i] over float32 slabs with float64
// accumulation. It panics if lengths differ.
func Dot32Kernel(a, b []float32) float64 {
	checkLen(len(a), len(b))
	b = b[:len(a)]
	var s0, s1 float64
	for len(a) >= 2 && len(b) >= 2 {
		x := (*[2]float32)(a)
		y := (*[2]float32)(b)
		s0 += float64(x[0]) * float64(y[0])
		s1 += float64(x[1]) * float64(y[1])
		a = a[2:]
		b = b[2:]
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return s0 + s1
}

// Max returns the maximum entry of v, or 0 for an empty vector.
func (v Vector32) Max() float32 {
	var m float32
	for i, x := range v {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}
