// Package simgraph implements §3 of the paper: the item-similarity graph
// induced by a CompaReSetS+ selection, and solvers for the TARGET-ORIENTED
// HEAVIEST K-SUBGRAPH problem (TargetHkS, Problem 3) — an exact
// branch-and-bound maximizer standing in for the paper's Gurobi ILP
// (TargetHkS_ILP), the greedy heuristic of Algorithm 2
// (TargetHkS_Greedy), and the Top-k-similarity and Random shortlist
// baselines of §4.3.
package simgraph

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"comparesets/internal/core"
)

// Graph is a complete undirected weighted graph over the instance items.
// Vertex 0 is the target item p₁. Weights are similarities (non-negative).
//
// Storage is a single row-major n×n slab so the solver bound loops stream
// one contiguous cache line sequence per vertex instead of chasing n row
// pointers.
type Graph struct {
	n int
	w []float64 // row-major: w[i*n+j] = w_ij
}

// NewGraph allocates an n-vertex graph with zero weights.
func NewGraph(n int) *Graph {
	return &Graph{n: n, w: make([]float64, n*n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// Row returns vertex i's adjacency row as a contiguous view into the slab
// (Row(i)[j] = w_ij, 0 on the diagonal). Callers must not modify it.
func (g *Graph) Row(i int) []float64 {
	return g.w[i*g.n : (i+1)*g.n : (i+1)*g.n]
}

// Weight returns w_ij (0 on the diagonal).
func (g *Graph) Weight(i, j int) float64 { return g.w[i*g.n+j] }

// SetWeight assigns the symmetric weight w_ij = w_ji.
func (g *Graph) SetWeight(i, j int, v float64) {
	if i == j {
		return
	}
	g.w[i*g.n+j] = v
	g.w[j*g.n+i] = v
}

// FromDistances converts a symmetric distance matrix into a similarity
// graph: w_ij = max_{i'≠j'} d_{i'j'} − d_ij (§3.1), which is non-negative.
func FromDistances(d [][]float64) (*Graph, error) {
	n := len(d)
	for i := range d {
		if len(d[i]) != n {
			return nil, fmt.Errorf("simgraph: distance matrix row %d has length %d, want %d", i, len(d[i]), n)
		}
	}
	maxd := math.Inf(-1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d[i][j] > maxd {
				maxd = d[i][j]
			}
		}
	}
	g := NewGraph(n)
	if n < 2 {
		return g, nil
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.SetWeight(i, j, maxd-d[i][j])
		}
	}
	return g, nil
}

// parallelBuildThreshold is the instance size above which Build fans the
// O(n²) pairwise distance loop across workers. Below it the sequential
// loop wins: goroutine startup costs more than the whole triangle.
const parallelBuildThreshold = 64

// Build constructs the similarity graph of an instance from the per-item
// statistics of a CompaReSetS+ selection, using d_ij of §3.1. For n ≥
// parallelBuildThreshold the pairwise loop runs on GOMAXPROCS workers;
// every d_ij is computed by exactly one worker from the same inputs in the
// same order, so parallel and sequential builds are byte-identical.
func Build(stats []core.ItemStats, cfg core.Config) *Graph {
	n := len(stats)
	// One backing slab for the distance matrix: the rows are views, so the
	// build allocates O(1) slices instead of n.
	backing := make([]float64, n*n)
	d := make([][]float64, n)
	for i := range d {
		d[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	if workers := runtime.GOMAXPROCS(0); n >= parallelBuildThreshold && workers > 1 {
		buildDistancesParallel(d, stats, cfg, workers)
	} else {
		buildDistancesSequential(d, stats, cfg)
	}
	g, _ := FromDistances(d) // square matrix by construction
	return g
}

// buildDistancesSequential fills the symmetric distance matrix row by row.
func buildDistancesSequential(d [][]float64, stats []core.ItemStats, cfg core.Config) {
	n := len(stats)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dist := core.ItemDistance(stats[i], stats[j], cfg)
			d[i][j], d[j][i] = dist, dist
		}
	}
}

// buildDistancesParallel computes the same matrix with workers claiming
// rows off a shared atomic counter. Row i owns cells (i, j>i) exclusively
// — including the mirrored write to (j, i), which no other row touches
// since row j only writes columns > j — so there are no write conflicts,
// and each d_ij is a single deterministic float expression: bytes match
// the sequential loop exactly. The atomic row counter load-balances the
// shrinking triangle rows.
func buildDistancesParallel(d [][]float64, stats []core.ItemStats, cfg core.Config, workers int) {
	n := len(stats)
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				for j := i + 1; j < n; j++ {
					dist := core.ItemDistance(stats[i], stats[j], cfg)
					d[i][j], d[j][i] = dist, dist
				}
			}
		}()
	}
	wg.Wait()
}

// SubsetWeight returns Σ_{i<j ∈ members} w_ij (Eq. 6).
func (g *Graph) SubsetWeight(members []int) float64 {
	var total float64
	for a := 0; a < len(members); a++ {
		row := g.Row(members[a])
		for b := a + 1; b < len(members); b++ {
			total += row[members[b]]
		}
	}
	return total
}

// Result is the outcome of a shortlist solver.
type Result struct {
	// Members are the selected vertices in ascending order; the target
	// vertex 0 is always included.
	Members []int
	// Weight is the total edge weight of the induced subgraph (Eq. 6).
	Weight float64
	// Optimal reports whether the solver proved the result optimal
	// (always true when the exact solver finishes within budget).
	Optimal bool
}

// Solver selects k items (including the target, vertex 0) from the graph.
type Solver interface {
	// Name identifies the solver in experiment tables.
	Name() string
	// Solve returns a k-subset including vertex 0. k is clamped to
	// [1, g.N()].
	Solve(g *Graph, k int) Result
	// SolveContext is Solve with cooperative cancellation. The exact
	// branch-and-bound treats an earlier ctx deadline like an exhausted
	// time budget — it returns its best incumbent with Optimal = false —
	// while the polynomial heuristics finish their (fast) run regardless.
	SolveContext(ctx context.Context, g *Graph, k int) Result
}

func clampK(g *Graph, k int) int {
	if k < 1 {
		return 1
	}
	if k > g.n {
		return g.n
	}
	return k
}
