package linalg

import (
	"math"
	"testing"
)

// sparseTestColumns returns dense columns with a mix of empty columns,
// −0 entries (zeros, to be dropped) and non-zeros.
func sparseTestColumns(rows, cols int, unit bool) []Vector {
	seed := uint64(rows*31 + cols)
	out := make([]Vector, cols)
	for j := range out {
		out[j] = NewVector(rows)
		if j%4 == 3 {
			continue
		}
		for i := range out[j] {
			switch r := lcg(&seed); {
			case r < 0.1:
				out[j][i] = math.Copysign(0, -1)
			case r < 0.35 && unit:
				out[j][i] = 1
			case r < 0.35:
				out[j][i] = r - 0.2
			}
		}
	}
	return out
}

// SparseFromColumns keeps exactly the non-zeros, rows ascending, and the
// append paths round-trip them; runs of all ones share one read-only slab,
// which appends never write.
func TestSparseColumnsRoundTrip(t *testing.T) {
	for _, unit := range []bool{false, true} {
		cols := sparseTestColumns(13, 9, unit)
		s := SparseFromColumns(13, cols)
		if s.Cols() != len(cols) || s.ones != unit {
			t.Fatalf("unit=%v: %d columns, shared ones %v", unit, s.Cols(), s.ones)
		}
		copied := NewSparseColumns(13, 0, 0)
		for j, c := range cols {
			idx, val := s.Col(j)
			last := int32(-1)
			for t2, i := range idx {
				if i <= last || val[t2] == 0 || math.Float64bits(val[t2]) != math.Float64bits(c[i]) {
					t.Fatalf("unit=%v column %d: run %v %v does not list the non-zeros of %v", unit, j, idx, val, c)
				}
				last = i
			}
			nnz := 0
			for _, v := range c {
				if v != 0 {
					nnz++
				}
			}
			if nnz != len(idx) {
				t.Fatalf("unit=%v column %d: %d entries in the run, %d non-zeros in %v", unit, j, len(idx), nnz, c)
			}
			copied.AppendSparse(idx, val)
		}
		if copied.ones || len(copied.Val) != len(s.Val) {
			t.Fatalf("unit=%v: appended copy shares ones %v, %d values of %d", unit, copied.ones, len(copied.Val), len(s.Val))
		}
		copied.ShareOnes()
		if copied.ones != unit {
			t.Fatalf("unit=%v: ShareOnes on the copy: %v", unit, copied.ones)
		}
		if unit {
			// An append after sharing copies the run back first.
			copied.appendDense(Vector{0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
			if copied.ones || copied.Val[len(copied.Val)-1] != 2 || onesRun(len(copied.Val))[len(copied.Val)-1] != 1 {
				t.Fatal("append wrote into the shared run of ones")
			}
		}
	}
	u := SparseFromColumns(13, sparseTestColumns(13, 9, true))
	if got, want := u.Bytes(), 4*(len(u.Off)+len(u.Idx)); got != want {
		t.Fatalf("Bytes of a shared-ones run = %d, want %d (offsets and rows only)", got, want)
	}
}

// ScatterAddKernel adds a sparse column into a dense accumulator exactly
// as AddKernel adds its dense form, bit for bit, when the accumulator
// holds no −0.
func TestScatterAddKernelMatchesAddKernel(t *testing.T) {
	for _, n := range kernelLens {
		cols := sparseTestColumns(n+1, 6, false)
		s := SparseFromColumns(n+1, cols)
		want, got := NewVector(n+1), NewVector(n+1)
		for j, c := range cols {
			AddKernel(c, want)
			idx, val := s.Col(j)
			ScatterAddKernel(idx, val, got)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d i=%d: scatter %v, dense %v", n, i, got[i], want[i])
			}
		}
	}
}
