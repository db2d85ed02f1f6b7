// Package regress implements the Integer-Regression algorithm of Lappas et
// al. (KDD 2012) as generalized by the paper (Algorithm 1): group identical
// review columns, solve the continuous relaxation of the review-selection
// problem with NOMP (non-negative orthogonal matching pursuit) for every
// sparsity budget ℓ = 1..m, round each continuous solution to integer
// review multiplicities by largest-remainder apportionment, and keep the
// candidate whose exact (combinatorial) objective is smallest.
//
// The package is algorithm-agnostic about what the columns mean. Callers
// (internal/core) describe the design as Blocks of scaled sparse review
// columns, build a Problem template from them once with NewBlockProblem,
// and solve it per target with Problem.SolveContext, supplying an
// evaluation callback that computes the exact objective of a candidate
// selection: the true opinion/aspect vectors of a selected set are
// normalized nonlinearly and cannot be read off the linear model.
package regress

import (
	"sync"
)

// dedupScratch is the per-call working state of groupColumns, pooled across
// calls so the grouping pass allocates nothing on the selection hot path:
// the hash index (with collision chains), the per-column group assignment,
// and the per-group bookkeeping all come back from the pool. Only the
// returned grouping is a fresh allocation, because callers retain it. col
// is the dense column NewBlockProblem scatters each Gram column into.
type dedupScratch struct {
	index    map[uint64]int32 // column hash → head of the group chain
	chain    []int32          // per group: next group with the same hash
	colGroup []int32          // per column: assigned group
	firstCol []int32          // per group: representative (first) column
	count    []int32          // per group: member count
	col      []float64
}

var dedupPool = sync.Pool{New: func() any {
	return &dedupScratch{index: make(map[uint64]int32)}
}}

// groups is the compact form of a grouping of identical columns: group
// g's members, the ascending original column indices, are
// mem[off[g]:off[g+1]], so its multiplicity is off[g+1] − off[g]. Both
// arrays share one allocation.
type groups struct {
	off []int32 // len(groups) + 1 offsets into mem
	mem []int32 // every column, grouped
}

// len returns the number of groups.
func (g groups) len() int { return len(g.off) - 1 }

// count returns group k's multiplicity.
func (g groups) count(k int) int { return int(g.off[k+1] - g.off[k]) }

// first returns group k's first column, which holds the group's values.
func (g groups) first(k int) int { return int(g.mem[g.off[k]]) }

// appendCounts appends every group's multiplicity to dst.
func (g groups) appendCounts(dst []int) []int {
	for k := 0; k < g.len(); k++ {
		dst = append(dst, g.count(k))
	}
	return dst
}

// groupColumns is NewBlockProblem's grouping pass, DeduplicateColumns of
// Algorithm 1, line 5: the ascending member list of every group of
// identical columns of the design, groups in order of first occurrence. A group's first member is its first
// column, so callers read a group's values straight from the design
// without a unique copy. sc is pooled scratch the caller checked out.
func groupColumns(sc *dedupScratch, d stack, cols int) groups {
	if cap(sc.colGroup) < cols {
		sc.colGroup = make([]int32, 0, cols)
	}
	// Grouping pass: hash each column and walk the (usually empty) collision
	// chain comparing non-zeros against each candidate group's
	// representative.
	for j := 0; j < cols; j++ {
		h := d.hash(j)
		g := int32(-1)
		head, ok := sc.index[h]
		if ok {
			for c := head; c >= 0; c = sc.chain[c] {
				if d.same(int(sc.firstCol[c]), j) {
					g = c
					break
				}
			}
		}
		if g < 0 {
			g = int32(len(sc.firstCol))
			sc.firstCol = append(sc.firstCol, int32(j))
			sc.count = append(sc.count, 0)
			if ok {
				sc.chain = append(sc.chain, head)
			} else {
				sc.chain = append(sc.chain, -1)
			}
			sc.index[h] = g
		}
		sc.count[g]++
		sc.colGroup = append(sc.colGroup, g)
	}
	// Output pass: offsets are the running sums of the counts; members
	// within a group come out ascending because columns are scanned in
	// order. sc.count is reused as each group's fill cursor.
	ng := len(sc.firstCol)
	slab := make([]int32, ng+1+cols)
	out := groups{off: slab[: ng+1 : ng+1], mem: slab[ng+1:]}
	for g, n := range sc.count {
		out.off[g+1] = out.off[g] + n
		sc.count[g] = out.off[g]
	}
	for j, g := range sc.colGroup {
		out.mem[sc.count[g]] = int32(j)
		sc.count[g]++
	}
	return out
}

// putDedupScratch resets sc and returns it to the pool.
func putDedupScratch(sc *dedupScratch) {
	clear(sc.index)
	sc.chain = sc.chain[:0]
	sc.colGroup = sc.colGroup[:0]
	sc.firstCol = sc.firstCol[:0]
	sc.count = sc.count[:0]
	dedupPool.Put(sc)
}
