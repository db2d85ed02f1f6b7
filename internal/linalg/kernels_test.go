package linalg

import (
	"math"
	"testing"
)

// lcg is a tiny deterministic generator so kernel tests need no seed
// plumbing: values land in [-1, 1).
func lcg(state *uint64) float64 {
	*state = *state*6364136223846793005 + 1442695040888963407
	return float64(int64(*state>>11))/float64(1<<52) - 1
}

func randomPair(n int, seed uint64) (a, b Vector) {
	a, b = NewVector(n), NewVector(n)
	for i := 0; i < n; i++ {
		a[i] = lcg(&seed) * 3
		b[i] = lcg(&seed) * 3
	}
	return a, b
}

// kernelLens covers the empty case, the scalar tail alone, exact unroll
// multiples, and every tail length around them.
var kernelLens = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 67}

// relClose compares with a relative tolerance: the unrolled kernels
// reassociate the reduction, so the last ulps may differ from the naive
// left-to-right loop.
func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-12*math.Max(scale, 1)
}

func TestDotKernelMatchesNaive(t *testing.T) {
	for _, n := range kernelLens {
		a, b := randomPair(n, uint64(n)+1)
		var want float64
		for i := range a {
			want += a[i] * b[i]
		}
		if got := DotKernel(a, b); !relClose(got, want) {
			t.Errorf("n=%d: DotKernel=%g naive=%g", n, got, want)
		}
	}
}

func TestSqDistKernelMatchesNaive(t *testing.T) {
	for _, n := range kernelLens {
		a, b := randomPair(n, uint64(n)+11)
		var want float64
		for i := range a {
			d := a[i] - b[i]
			want += d * d
		}
		if got := SqDistKernel(a, b); !relClose(got, want) {
			t.Errorf("n=%d: SqDistKernel=%g naive=%g", n, got, want)
		}
	}
}

func TestAxpyKernelMatchesNaive(t *testing.T) {
	for _, n := range kernelLens {
		x, y := randomPair(n, uint64(n)+23)
		want := y.Clone()
		const alpha = -1.75
		for i := range want {
			want[i] += alpha * x[i]
		}
		AxpyKernel(alpha, x, y)
		for i := range want {
			if y[i] != want[i] {
				t.Fatalf("n=%d i=%d: AxpyKernel=%g naive=%g", n, i, y[i], want[i])
			}
		}
	}
}

// AxpyKernel documents alpha == 0 as an exact no-op: y must not be
// rewritten even when x carries NaN or signed zeros.
func TestAxpyKernelZeroAlphaNoOp(t *testing.T) {
	x := Vector{math.NaN(), math.Inf(1), -0.0, 1}
	y := Vector{1, 2, 3, 4}
	want := y.Clone()
	AxpyKernel(0, x, y)
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("i=%d: y=%g, want untouched %g", i, y[i], want[i])
		}
	}
}

func TestAddKernelMatchesNaive(t *testing.T) {
	for _, n := range kernelLens {
		x, y := randomPair(n, uint64(n)+31)
		want := y.Clone()
		for i := range want {
			want[i] += x[i]
		}
		AddKernel(x, y)
		for i := range want {
			if y[i] != want[i] {
				t.Fatalf("n=%d i=%d: AddKernel=%g naive=%g", n, i, y[i], want[i])
			}
		}
	}
}

func TestGatherDotKernelMatchesNaive(t *testing.T) {
	for _, n := range kernelLens {
		dense, _ := randomPair(n+8, uint64(n)+41)
		idx := make([]int32, n)
		val := NewVector(n)
		seed := uint64(n) + 43
		for i := 0; i < n; i++ {
			idx[i] = int32((i * 5) % len(dense))
			val[i] = lcg(&seed)
		}
		var want float64
		for i := range idx {
			want += val[i] * dense[idx[i]]
		}
		if got := GatherDotKernel(idx, val, dense); !relClose(got, want) {
			t.Errorf("n=%d: GatherDotKernel=%g naive=%g", n, got, want)
		}
	}
}

func TestKernelLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DotKernel with mismatched lengths did not panic")
		}
	}()
	DotKernel(Vector{1, 2}, Vector{1})
}

func narrowed(v Vector) Vector32 {
	out := make(Vector32, len(v))
	NarrowKernel(v, out)
	return out
}

func TestNarrowWidenRoundTrip(t *testing.T) {
	// Small integers are exactly representable in float32: the round trip
	// must be lossless (this is what makes counting-scheme selections
	// byte-identical in compact mode).
	v := Vector{0, 1, 2, 3, 5, 8, 13, 21}
	back := NewVector(len(v))
	WidenKernel(narrowed(v), back)
	for i := range v {
		if back[i] != v[i] {
			t.Fatalf("i=%d: round trip %g -> %g", i, v[i], back[i])
		}
	}
}

func TestAddWidenKernelMatchesNaive(t *testing.T) {
	for _, n := range kernelLens {
		src, acc := randomPair(n, uint64(n)+61)
		s32 := narrowed(src)
		want := acc.Clone()
		for i := range want {
			want[i] += float64(s32[i])
		}
		AddWidenKernel(s32, acc)
		for i := range want {
			if acc[i] != want[i] {
				t.Fatalf("n=%d i=%d: AddWidenKernel=%g naive=%g", n, i, acc[i], want[i])
			}
		}
	}
}

func TestDot32AndSqDist32MatchFloat64WithinTolerance(t *testing.T) {
	for _, n := range kernelLens {
		a, b := randomPair(n, uint64(n)+71)
		a32, b32 := narrowed(a), narrowed(b)
		// Reference: float64 kernels over the widened float32 inputs —
		// float32 mode's only loss is the input narrowing, never the
		// accumulation, so against widened inputs the match is exact.
		wa, wb := NewVector(n), NewVector(n)
		WidenKernel(a32, wa)
		WidenKernel(b32, wb)
		if got, want := Dot32Kernel(a32, b32), DotKernel(wa, wb); !relClose(got, want) {
			t.Errorf("n=%d: Dot32Kernel=%g float64 ref=%g", n, got, want)
		}
		if got, want := SqDist32Kernel(a32, b32), SqDistKernel(wa, wb); !relClose(got, want) {
			t.Errorf("n=%d: SqDist32Kernel=%g float64 ref=%g", n, got, want)
		}
	}
}

// Kernel micro-benchmarks (recorded into BENCH_core.json; CI runs them as a
// 1x smoke so a kernel regression that panics or allocates is caught).

const benchKernelLen = 512

func benchPair(b *testing.B) (Vector, Vector) {
	b.Helper()
	x, y := randomPair(benchKernelLen, 97)
	b.ReportAllocs()
	b.ResetTimer()
	return x, y
}

var sinkFloat float64

func BenchmarkDotKernel(b *testing.B) {
	x, y := benchPair(b)
	for i := 0; i < b.N; i++ {
		sinkFloat = DotKernel(x, y)
	}
}

func BenchmarkSqDistKernel(b *testing.B) {
	x, y := benchPair(b)
	for i := 0; i < b.N; i++ {
		sinkFloat = SqDistKernel(x, y)
	}
}

func BenchmarkAxpyKernel(b *testing.B) {
	x, y := benchPair(b)
	for i := 0; i < b.N; i++ {
		AxpyKernel(0.5, x, y)
	}
}

func BenchmarkGatherDotKernel(b *testing.B) {
	dense, val := randomPair(benchKernelLen, 101)
	idx := make([]int32, benchKernelLen)
	for i := range idx {
		idx[i] = int32((i * 7) % benchKernelLen)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = GatherDotKernel(idx, val, dense)
	}
}

func BenchmarkDot32Kernel(b *testing.B) {
	x, y := benchPair(b)
	x32, y32 := narrowed(x), narrowed(y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = Dot32Kernel(x32, y32)
	}
}

func BenchmarkSqDist32Kernel(b *testing.B) {
	x, y := benchPair(b)
	x32, y32 := narrowed(x), narrowed(y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = SqDist32Kernel(x32, y32)
	}
}
