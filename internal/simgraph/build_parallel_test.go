package simgraph

import (
	"math"
	"math/rand"
	"testing"

	"comparesets/internal/core"
	"comparesets/internal/linalg"
)

// randomStats synthesizes per-item selection statistics with full float64
// entropy so any ordering or accumulation difference between the parallel
// and sequential loops would show up in the bit patterns.
func randomStats(n, z int, seed int64) []core.ItemStats {
	rng := rand.New(rand.NewSource(seed))
	stats := make([]core.ItemStats, n)
	for i := range stats {
		phi := linalg.NewVector(z)
		pi := linalg.NewVector(z)
		for k := 0; k < z; k++ {
			phi[k] = rng.Float64()
			pi[k] = rng.Float64()
		}
		stats[i] = core.ItemStats{
			OpinionLoss: rng.Float64() * 3,
			AspectLoss:  rng.Float64() * 2,
			Phi:         phi,
			Pi:          pi,
		}
	}
	return stats
}

// TestParallelBuildByteIdentical proves the parallel pairwise loop produces
// bit-for-bit the same weights as the sequential loop, across sizes
// straddling the dispatch threshold.
func TestParallelBuildByteIdentical(t *testing.T) {
	cfg := core.Config{M: 3, Lambda: 0.7, Mu: 0.3}
	for _, n := range []int{2, parallelBuildThreshold - 1, parallelBuildThreshold, parallelBuildThreshold + 33, 200} {
		stats := randomStats(n, 12, int64(n))
		seq := make([][]float64, n)
		par := make([][]float64, n)
		for i := range seq {
			seq[i] = make([]float64, n)
			par[i] = make([]float64, n)
		}
		buildDistancesSequential(seq, stats, cfg)
		for _, workers := range []int{2, 3, 8} {
			for i := range par {
				for j := range par[i] {
					par[i][j] = 0
				}
			}
			buildDistancesParallel(par, stats, cfg, workers)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if math.Float64bits(seq[i][j]) != math.Float64bits(par[i][j]) {
						t.Fatalf("n=%d workers=%d: d[%d][%d] differs: seq=%x par=%x",
							n, workers, i, j, math.Float64bits(seq[i][j]), math.Float64bits(par[i][j]))
					}
				}
			}
		}
	}
}

// Build itself must give the same graph no matter which path it picked.
func TestBuildDispatchConsistent(t *testing.T) {
	cfg := core.Config{M: 3, Lambda: 1, Mu: 0.2}
	stats := randomStats(parallelBuildThreshold+5, 8, 42)
	g := Build(stats, cfg)
	want := make([][]float64, len(stats))
	for i := range want {
		want[i] = make([]float64, len(stats))
	}
	buildDistancesSequential(want, stats, cfg)
	ref, err := FromDistances(want)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			if math.Float64bits(g.Weight(i, j)) != math.Float64bits(ref.Weight(i, j)) {
				t.Fatalf("weight (%d,%d) differs", i, j)
			}
		}
	}
}

func BenchmarkBuild200(b *testing.B) {
	cfg := core.Config{M: 3, Lambda: 1, Mu: 0.2}
	stats := randomStats(200, 16, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(stats, cfg)
	}
}

func BenchmarkBuildSequential200(b *testing.B) {
	cfg := core.Config{M: 3, Lambda: 1, Mu: 0.2}
	stats := randomStats(200, 16, 7)
	n := len(stats)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildDistancesSequential(d, stats, cfg)
		g, _ := FromDistances(d)
		_ = g
	}
}
