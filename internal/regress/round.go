package regress

import (
	"math"
	"slices"

	"comparesets/internal/linalg"
)

// mult is one non-zero entry of a sparse multiplicity vector ν: k units of
// unique column idx.
type mult struct{ idx, k int }

// frac is one entry's fractional part during apportionment; pos is the
// entry's position in the list being apportioned (the support, or every
// column), which is in ascending column order, so ordering by pos is
// ordering by column index.
type frac struct {
	pos int
	rem float64
}

// rounder is the largest-remainder apportionment of Algorithm 1, line 8:
// it distributes T units over the entries of a normalized weight vector u,
// proportionally to u and capped per entry, for any total T. Load the
// weights once, then call apportion for each total.
//
// Only the support of u (its non-zero entries, ≤ ℓ for a NOMP iterate) can
// receive a floor or a positive remainder; every zero-weight entry with
// room has remainder exactly 0 and takes leftover units in index order. So
// apportion does floors and remainders over the support, picks the largest
// positive remainders, and hands the rest to a prefix of the zero-weight
// list. Whenever that shortcut could order entries differently from the
// dense rule — a support remainder ≤ 0 that leftover units reach, floors
// that over-assign, a second pass over entries that already took a unit,
// or weights that are not all finite and non-negative (or a negative cap)
// — it runs the dense rule itself over every entry.
//
// A rounder lives in pooled solver scratch: load resets every buffer and
// no state is indexed by column, so nothing leaks between problems of
// different sizes.
type rounder struct {
	u      linalg.Vector
	counts []int
	dense  bool // some weight or cap rules out the shortcut

	// The support (u[i] ≠ 0) in ascending column order, with its weights
	// and caps gathered so the per-total loop reads them sequentially.
	idx  []int
	w    []float64
	caps []int

	zeros []int  // ascending: u[i] = 0 and counts[i] > 0
	vals  []int  // multiplicity per position of the entries being apportioned
	rems  []frac // remainders of the entries with room
	out   []mult // the last apportionment, ascending by column
}

// load installs weights u and caps counts (equal lengths); the rounder
// reads both until the next load.
func (r *rounder) load(u linalg.Vector, counts []int) {
	r.u, r.counts = u, counts
	r.dense = false
	r.idx, r.w, r.caps, r.zeros = r.idx[:0], r.w[:0], r.caps[:0], r.zeros[:0]
	for i, w := range u {
		switch c := counts[i]; {
		case c < 0 || math.IsNaN(w) || w < 0 || math.IsInf(w, 1):
			r.dense = true
		case w != 0:
			r.idx = append(r.idx, i)
			r.w = append(r.w, w)
			r.caps = append(r.caps, c)
		case c > 0:
			r.zeros = append(r.zeros, i)
		}
	}
}

// floors computes the capped floors of the entries with weights ws and
// caps into r.vals and returns their sum; entries below their cap record
// their remainder in r.rems (all of them when keepNonPositive, else only
// the positive ones). nonPositive reports whether a remainder ≤ 0 was
// dropped.
func (r *rounder) floors(ws []float64, caps []int, total int, keepNonPositive bool) (assigned int, nonPositive bool) {
	t := float64(total)
	caps = caps[:len(ws)]
	vals := growInts(r.vals, len(ws))
	rems := r.rems[:0]
	for k, w := range ws {
		ideal := w * t
		f := int(math.Floor(ideal + 1e-12))
		c := caps[k]
		if f >= c {
			vals[k] = c
			assigned += c
			continue
		}
		vals[k] = f
		assigned += f
		if rem := ideal - float64(f); rem > 0 || keepNonPositive {
			rems = append(rems, frac{k, rem})
		} else {
			nonPositive = true
		}
	}
	r.vals, r.rems = vals, rems
	return assigned, nonPositive
}

// apportion returns the multiplicities for total units as a sparse ν in
// ascending column order (valid until the next call), or false when the
// caps cannot hold the total. The result equals the dense
// largest-remainder rule entry for entry; outside dense mode every entry
// is within [1, cap].
func (r *rounder) apportion(total int) ([]mult, bool) {
	if r.dense {
		return r.denseRule(total)
	}
	assigned, nonPositive := r.floors(r.w, r.caps, total, false)
	left := total - assigned
	fromZeros := left - len(r.rems)
	if left < 0 || (fromZeros > 0 && (nonPositive || fromZeros > len(r.zeros))) {
		return r.denseRule(total)
	}
	// In the dense order the positive remainders come first (largest
	// first, ties to the lower index), then the zero-weight entries by
	// index; each entry reached takes one unit.
	rems, vals := r.rems, r.vals
	if left < len(rems) {
		rems = topRems(rems, left)
	}
	for _, f := range rems {
		vals[f.pos]++
	}
	var extra []int
	if fromZeros > 0 {
		extra = r.zeros[:fromZeros]
	}
	// Merge the support's multiplicities with the unit-weight zero prefix.
	out := r.out[:0]
	for k, i := range r.idx {
		for len(extra) > 0 && extra[0] < i {
			out = append(out, mult{extra[0], 1})
			extra = extra[1:]
		}
		if v := vals[k]; v != 0 {
			out = append(out, mult{i, v})
		}
	}
	for _, i := range extra {
		out = append(out, mult{i, 1})
	}
	r.out = out
	return out, true
}

// denseRule is the largest-remainder rule over every entry: capped
// floors; when they over-assign, shave the smallest ideals; then one unit
// per entry by descending remainder (ties to the lower index), and further
// one-unit passes in that order while units are left.
func (r *rounder) denseRule(total int) ([]mult, bool) {
	assigned, _ := r.floors(r.u, r.counts, total, true)
	nu := r.vals
	if assigned > total {
		// Over-assignment can only come from the floor of an exact ideal
		// exceeding the remaining budget; shave the smallest ideals. The
		// candidates are the entries with a positive floor, stably sorted
		// ascending by ideal (carried in rem).
		shave := r.rems[len(r.rems):]
		for i, w := range r.u {
			if nu[i] > 0 {
				shave = append(shave, frac{i, w * float64(total)})
			}
		}
		for i := 1; i < len(shave); i++ {
			f := shave[i]
			j := i - 1
			for j >= 0 && shave[j].rem > f.rem {
				shave[j+1] = shave[j]
				j--
			}
			shave[j+1] = f
		}
		for _, f := range shave {
			for assigned > total && nu[f.pos] > 0 {
				nu[f.pos]--
				assigned--
			}
		}
	}
	rems := topRems(r.rems, len(r.rems))
	for _, f := range rems {
		if assigned == total {
			break
		}
		room := r.counts[f.pos] - nu[f.pos]
		take := total - assigned
		if take > room {
			take = room
		}
		if take > 1 {
			take = 1
		}
		nu[f.pos] += take
		assigned += take
	}
	// Further passes while short (caps exhausted the one-unit round).
	for pass := 0; assigned < total && pass < total; pass++ {
		progress := false
		for _, f := range rems {
			if assigned == total {
				break
			}
			if nu[f.pos] < r.counts[f.pos] {
				nu[f.pos]++
				assigned++
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	if assigned != total {
		return nil, false
	}
	r.out = r.out[:0]
	for i, k := range nu {
		if k != 0 {
			r.out = append(r.out, mult{i, k})
		}
	}
	return r.out, true
}

// topRems moves the n largest remainders (ties to the lower position) to
// the front of rems, in that order, and returns them (all of rems when it
// is shorter): an insertion sort that keeps only the first n places, as
// the lists are short.
func topRems(rems []frac, n int) []frac {
	n = min(n, len(rems))
	if n == 0 {
		return rems[:0]
	}
	// behind reports whether a belongs after b, in the exact form of the
	// dense rule's comparison (a NaN remainder is never behind).
	behind := func(a, b frac) bool { return a.rem < b.rem || (a.rem == b.rem && a.pos > b.pos) }
	for i := 1; i < len(rems); i++ {
		f := rems[i]
		j := min(i, n-1)
		if i >= n && !behind(rems[j], f) {
			continue // f does not beat the last kept place
		}
		for ; j > 0 && behind(rems[j-1], f); j-- {
			rems[j] = rems[j-1]
		}
		rems[j] = f
	}
	return rems[:n]
}

// growInts reslices v to length n, reallocating only when capacity is
// short.
func growInts(v []int, n int) []int {
	if cap(v) < n {
		return make([]int, n)
	}
	return v[:n]
}

// candidateSet records the candidates scored in one solve as canonical
// sparse ν — entries clamped to [0, group size], zeros dropped — grouped
// by the size of their selection. Expansion (appendExpandSparse) is
// injective on canonical ν and keeps its size, so a candidate is new
// exactly when its selection is, and a candidate is compared only against
// earlier ones of the same size, before it is ever expanded.
type candidateSet struct {
	arena  []mult
	bySize [][]span // bySize[T]: the recorded candidates selecting T columns
}

// span locates one recorded ν in the arena; offsets stay valid when the
// arena grows.
type span struct{ off, n int }

// reset empties the set, keeping its capacity.
func (s *candidateSet) reset() {
	s.arena = s.arena[:0]
	for t := range s.bySize {
		s.bySize[t] = s.bySize[t][:0]
	}
}

// add records canonical nu of the given size and reports whether it was
// new.
func (s *candidateSet) add(nu []mult, size int) bool {
	for len(s.bySize) <= size {
		s.bySize = append(s.bySize, nil)
	}
	bucket, arena := s.bySize[size], s.arena
	for _, sp := range bucket {
		if slices.Equal(arena[sp.off:sp.off+sp.n], nu) {
			return false
		}
	}
	s.bySize[size] = append(bucket, span{len(arena), len(nu)})
	s.arena = append(arena, nu...)
	return true
}

// canonicalize clamps each entry of nu to what expansion selects from its
// group and drops empty entries, in place; it returns the result and the
// selection size.
func canonicalize(nu []mult, g groups) ([]mult, int) {
	out := nu[:0]
	size := 0
	for _, e := range nu {
		e.k = min(e.k, g.count(e.idx))
		if e.k > 0 {
			out = append(out, e)
			size += e.k
		}
	}
	return out, size
}

// appendExpandSparse is Algorithm 1, line 9, for a canonical sparse ν: for
// each unique column i, the first ν[i] of its member columns are selected;
// they are inserted in ascending order as they are appended.
func appendExpandSparse(dst []int, nu []mult, g groups) []int {
	for _, e := range nu {
		lo := int(g.off[e.idx])
		for _, m := range g.mem[lo : lo+e.k] {
			j := int(m)
			dst = append(dst, j)
			i := len(dst) - 1
			for ; i > 0 && dst[i-1] > j; i-- {
				dst[i] = dst[i-1]
			}
			dst[i] = j
		}
	}
	return dst
}
