package linalg

// Blocked, bounds-check-free compute kernels behind the package's vector and
// matrix operations. Each kernel follows the same shape: an up-front length
// reslice (`b = b[:len(a)]`) that ties the two lengths together for the
// prover, a 4-way unrolled main loop that converts the slice heads to fixed
// [4]-array pointers and advances both slices (the one pattern the compiler
// reliably proves in-bounds), feeding four independent accumulators so the
// floating-point dependency chain is broken and the FPU pipelines stay full,
// and a scalar tail. The CI guard (`make bce-check`) builds this file with
// -d=ssa/check_bce and fails if any bounds check reappears in a kernel; the
// inherently unprovable accesses — the data-dependent gather in
// GatherDotKernel and scatter in ScatterAddKernel — live in gather.go,
// outside the guard.
//
// The unrolled kernels reassociate the reduction (four partial sums combined
// at the end), so results can differ from a naive left-to-right loop in the
// last ulps. Every kernel is still fully deterministic — same inputs, same
// bits, on every run and every GOMAXPROCS — which is the property the
// selection pipeline's byte-identity tests rely on.

// DotKernel returns Σᵢ a[i]·b[i]. It panics if lengths differ.
func DotKernel(a, b []float64) float64 {
	checkLen(len(a), len(b))
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 {
		x := (*[4]float64)(a)
		y := (*[4]float64)(b)
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
		a = a[4:]
		b = b[4:]
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// AxpyKernel sets y[i] += alpha·x[i] for every i. It panics if lengths
// differ. alpha == 0 is a no-op (exact: y is not rewritten, so -0/NaN
// propagation cannot perturb it).
func AxpyKernel(alpha float64, x, y []float64) {
	checkLen(len(x), len(y))
	if alpha == 0 {
		return
	}
	x = x[:len(y)]
	for len(y) >= 4 && len(x) >= 4 {
		xx := (*[4]float64)(x)
		yy := (*[4]float64)(y)
		yy[0] += alpha * xx[0]
		yy[1] += alpha * xx[1]
		yy[2] += alpha * xx[2]
		yy[3] += alpha * xx[3]
		x = x[4:]
		y = y[4:]
	}
	for i := 0; i < len(y) && i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// AddKernel sets y[i] += x[i] for every i. It panics if lengths differ.
func AddKernel(x, y []float64) {
	checkLen(len(x), len(y))
	x = x[:len(y)]
	for len(y) >= 4 && len(x) >= 4 {
		xx := (*[4]float64)(x)
		yy := (*[4]float64)(y)
		yy[0] += xx[0]
		yy[1] += xx[1]
		yy[2] += xx[2]
		yy[3] += xx[3]
		x = x[4:]
		y = y[4:]
	}
	for i := 0; i < len(y) && i < len(x); i++ {
		y[i] += x[i]
	}
}

// SqDistKernel returns Σᵢ (a[i]−b[i])². It panics if lengths differ.
func SqDistKernel(a, b []float64) float64 {
	checkLen(len(a), len(b))
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 {
		x := (*[4]float64)(a)
		y := (*[4]float64)(b)
		d0 := x[0] - y[0]
		d1 := x[1] - y[1]
		d2 := x[2] - y[2]
		d3 := x[3] - y[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		a = a[4:]
		b = b[4:]
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}
