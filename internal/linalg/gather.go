package linalg

// GatherDotKernel returns Σₜ val[t]·dense[idx[t]] — the sparse-column dot
// product behind the NOMP correlation pass and the Gram assembly. idx and
// val must have equal length; every index must be within dense (the sparse
// forms are built from the same matrix, so this holds by construction).
//
// This kernel lives outside kernels.go deliberately: the dense[idx[t]] load
// is data-dependent, so its bounds check is unprovable by construction and
// stays as the safety net against a corrupt sparse form. The bce-check guard
// covers kernels.go and kernels32.go only; everything provable here (the
// idx/val walk) still follows the bounds-check-free advancing-slice shape.
func GatherDotKernel(idx []int32, val, dense []float64) float64 {
	checkLen(len(idx), len(val))
	val = val[:len(idx)]
	var s0, s1 float64
	for len(idx) >= 2 && len(val) >= 2 {
		ii := (*[2]int32)(idx)
		vv := (*[2]float64)(val)
		s0 += vv[0] * dense[ii[0]]
		s1 += vv[1] * dense[ii[1]]
		idx = idx[2:]
		val = val[2:]
	}
	for i := 0; i < len(idx) && i < len(val); i++ {
		s0 += val[i] * dense[idx[i]]
	}
	return s0 + s1
}

// ScatterAddKernel sets dense[idx[t]] += val[t] for every t: a sparse
// column added into a dense accumulator, touching only its non-zeros. For
// an accumulator that holds no −0, the result is bit-identical to adding
// the column's dense form with AddKernel, since adding +0 (or −0) to a
// value other than −0 leaves it unchanged. Like GatherDotKernel it lives
// here because the dense[idx[t]] store is data-dependent; the idx/val walk
// follows the advancing-slice shape.
func ScatterAddKernel(idx []int32, val, dense []float64) {
	checkLen(len(idx), len(val))
	val = val[:len(idx)]
	for len(idx) >= 2 && len(val) >= 2 {
		ii := (*[2]int32)(idx)
		vv := (*[2]float64)(val)
		dense[ii[0]] += vv[0]
		dense[ii[1]] += vv[1]
		idx = idx[2:]
		val = val[2:]
	}
	for i := 0; i < len(idx) && i < len(val); i++ {
		dense[idx[i]] += val[i]
	}
}
