package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"comparesets/internal/core"
	"comparesets/internal/linalg"
	"comparesets/internal/model"
	"comparesets/internal/obs"
	"comparesets/internal/rouge"
	"comparesets/internal/stats"
)

// SweepResult is a hyperparameter sweep (Figures 5a/5b): ROUGE-L
// (target-vs-comparative, ×100) per dataset per parameter value.
type SweepResult struct {
	Param  string
	Values []float64
	// RL[ds][vi] is the score of dataset ds at Values[vi].
	Datasets []string
	RL       [][]float64
}

// Figure5a sweeps λ for CompaReSetS (μ unused) at the given m.
func Figure5a(w *Workload, lambdas []float64, m int) (SweepResult, error) {
	return sweep(w, "lambda", lambdas, m, func(v float64) (core.Selector, core.Config) {
		cfg := Config(m)
		cfg.Lambda = v
		return core.CompaReSetS{}, cfg
	})
}

// Figure5b sweeps μ for CompaReSetS+ with λ = 1 at the given m.
func Figure5b(w *Workload, mus []float64, m int) (SweepResult, error) {
	return sweep(w, "mu", mus, m, func(v float64) (core.Selector, core.Config) {
		cfg := Config(m)
		cfg.Mu = v
		return core.CompaReSetSPlus{}, cfg
	})
}

func sweep(w *Workload, param string, values []float64, m int, build func(float64) (core.Selector, core.Config)) (SweepResult, error) {
	res := SweepResult{Param: param, Values: values, Datasets: w.DatasetNames()}
	res.RL = make([][]float64, len(w.Corpora))
	for ds := range w.Corpora {
		res.RL[ds] = make([]float64, len(values))
		for vi, v := range values {
			sel, cfg := build(v)
			sels, err := w.RunSelector(ds, sel, cfg)
			if err != nil {
				return res, err
			}
			var all []rouge.Result
			for ii, s := range sels {
				t, _ := instanceAlignments(w.Instances[ds][ii], s, nil)
				all = append(all, t)
			}
			res.RL[ds][vi] = alignmentFrom(rouge.Average(all)).RL
		}
	}
	return res, nil
}

// Render renders the sweep as one series per dataset.
func (r SweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "%-10s", r.Param)
	for _, v := range r.Values {
		fmt.Fprintf(w, "%10g", v)
	}
	fmt.Fprintln(w)
	for ds, name := range r.Datasets {
		fmt.Fprintf(w, "%-10s", name)
		for vi := range r.Values {
			fmt.Fprintf(w, "%10.2f", r.RL[ds][vi])
		}
		fmt.Fprintln(w)
	}
}

// GapBucket is one review-count bucket of Figure 6.
type GapBucket struct {
	// Lo and Hi bound the average per-item review count of the bucket.
	Lo, Hi    float64
	Instances int
	// PlusGap and CrsGap are mean ROUGE-L (×100) differences over Random.
	PlusGapTarget, CrsGapTarget float64 // (a) vs target item
	PlusGapAmong, CrsGapAmong   float64 // (b) among items
}

// Figure6Result is the performance-gap-vs-review-count analysis: the more
// reviews an item has, the more room selection quality has to matter.
type Figure6Result struct {
	Dataset string
	Buckets []GapBucket
}

// Figure6 buckets dataset ds's instances by average reviews per item and
// reports the ROUGE-L gaps of CompaReSetS+ and CRS over Random.
func Figure6(w *Workload, ds, m, numBuckets int) (Figure6Result, error) {
	res := Figure6Result{Dataset: w.Corpora[ds].Category}
	type scores struct{ plusT, crsT, randT, plusA, crsA, randA, reviews float64 }
	insts := w.Instances[ds]
	per := make([]scores, len(insts))

	runs := map[string][]*core.Selection{}
	for _, sel := range []core.Selector{core.CompaReSetSPlus{}, core.CRS{}, core.Random{}} {
		sels, err := w.RunSelector(ds, sel, Config(m))
		if err != nil {
			return res, err
		}
		runs[sel.Name()] = sels
	}
	for i, inst := range insts {
		var total int
		for _, it := range inst.Items {
			total += len(it.Reviews)
		}
		per[i].reviews = float64(total) / float64(inst.NumItems())
		t, a := instanceAlignments(inst, runs["CompaReSetS+"][i], nil)
		per[i].plusT, per[i].plusA = 100*t.RL.F1, 100*a.RL.F1
		t, a = instanceAlignments(inst, runs["Crs"][i], nil)
		per[i].crsT, per[i].crsA = 100*t.RL.F1, 100*a.RL.F1
		t, a = instanceAlignments(inst, runs["Random"][i], nil)
		per[i].randT, per[i].randA = 100*t.RL.F1, 100*a.RL.F1
	}
	// Equal-population buckets over sorted review counts.
	order := make([]int, len(per))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return per[order[a]].reviews < per[order[b]].reviews })
	if numBuckets < 1 {
		numBuckets = 1
	}
	if numBuckets > len(order) {
		numBuckets = len(order)
	}
	for b := 0; b < numBuckets; b++ {
		lo := b * len(order) / numBuckets
		hi := (b + 1) * len(order) / numBuckets
		if lo >= hi {
			continue
		}
		var bucket GapBucket
		bucket.Lo = per[order[lo]].reviews
		bucket.Hi = per[order[hi-1]].reviews
		var plusT, crsT, randT, plusA, crsA, randA []float64
		for _, oi := range order[lo:hi] {
			plusT = append(plusT, per[oi].plusT)
			crsT = append(crsT, per[oi].crsT)
			randT = append(randT, per[oi].randT)
			plusA = append(plusA, per[oi].plusA)
			crsA = append(crsA, per[oi].crsA)
			randA = append(randA, per[oi].randA)
		}
		bucket.Instances = hi - lo
		bucket.PlusGapTarget = stats.Mean(plusT) - stats.Mean(randT)
		bucket.CrsGapTarget = stats.Mean(crsT) - stats.Mean(randT)
		bucket.PlusGapAmong = stats.Mean(plusA) - stats.Mean(randA)
		bucket.CrsGapAmong = stats.Mean(crsA) - stats.Mean(randA)
		res.Buckets = append(res.Buckets, bucket)
	}
	return res, nil
}

// Render renders the gap series.
func (r Figure6Result) Render(w io.Writer) {
	fmt.Fprintf(w, "%s: ROUGE-L gap over Random by avg #reviews per item\n", r.Dataset)
	fmt.Fprintf(w, "%-16s %5s %14s %12s %14s %12s\n", "bucket", "n", "Plus-Rand (a)", "Crs-Rand (a)", "Plus-Rand (b)", "Crs-Rand (b)")
	for _, b := range r.Buckets {
		fmt.Fprintf(w, "[%5.1f,%5.1f]   %5d %14.3f %12.3f %14.3f %12.3f\n",
			b.Lo, b.Hi, b.Instances, b.PlusGapTarget, b.CrsGapTarget, b.PlusGapAmong, b.CrsGapAmong)
	}
}

// RuntimePoint is one (algorithm, m, n) mean runtime measurement.
type RuntimePoint struct {
	Algorithm string
	M         int
	NumItems  int
	Mean      time.Duration
	// Solves is the number of Integer-Regression solves (NOMP paths) the
	// algorithm ran over the point's instances: the work count behind the
	// runtime, which does not depend on machine load.
	Solves uint64
}

// Figure7Result is the runtime-vs-number-of-items analysis on
// Cellphone-style instances.
type Figure7Result struct {
	Dataset string
	Points  []RuntimePoint
}

// Figure7 measures average selection runtime on instances widened to n
// comparative items, for each algorithm and m. Instances are widened by
// borrowing additional corpus items, mirroring longer also-bought lists.
// Solves are counted from the process-wide NOMP stage histogram, so they
// are exact only while no other selection runs in the process.
func Figure7(w *Workload, ds int, ns, ms []int, perPoint int) (Figure7Result, error) {
	res := Figure7Result{Dataset: w.Corpora[ds].Category}
	algs := []core.Selector{core.CRS{}, core.CompaReSetS{}, core.CompaReSetSPlus{}, core.Greedy{}}
	for _, n := range ns {
		insts := widenedInstances(w, ds, n, perPoint)
		for _, m := range ms {
			for _, alg := range algs {
				cfg := Config(m)
				var total time.Duration
				var count int
				nomp := obs.StageHistogram(obs.StageNOMP)
				solves := nomp.Count()
				for _, inst := range insts {
					start := time.Now()
					if _, err := alg.Select(inst, cfg); err != nil {
						return res, err
					}
					total += time.Since(start)
					count++
				}
				if count == 0 {
					continue
				}
				res.Points = append(res.Points, RuntimePoint{
					Algorithm: alg.Name(), M: m, NumItems: n,
					Mean: total / time.Duration(count), Solves: nomp.Count() - solves,
				})
			}
		}
	}
	return res, nil
}

// widenedInstances builds instances with exactly n comparative items by
// padding also-bought lists with other corpus items (deterministically).
func widenedInstances(w *Workload, ds, n, count int) []*model.Instance {
	corpus := w.Corpora[ds]
	ids := corpus.ItemIDs()
	rng := rand.New(rand.NewSource(w.Seed + int64(n)))
	var out []*model.Instance
	for i := 0; i < count && i < len(w.Instances[ds]); i++ {
		base := w.Instances[ds][i]
		items := append([]*model.Item{}, base.Items...)
		seen := map[string]bool{}
		for _, it := range items {
			seen[it.ID] = true
		}
		for len(items)-1 < n {
			id := ids[rng.Intn(len(ids))]
			if seen[id] {
				continue
			}
			seen[id] = true
			items = append(items, corpus.Items[id])
		}
		if len(items)-1 > n {
			items = items[:n+1]
		}
		out = append(out, &model.Instance{Aspects: base.Aspects, Items: items})
	}
	return out
}

// Render renders mean runtimes grouped by algorithm and m.
func (r Figure7Result) Render(w io.Writer) {
	fmt.Fprintf(w, "%s: mean runtime per instance (seconds)\n", r.Dataset)
	fmt.Fprintf(w, "%-20s %3s %4s %12s %8s\n", "Algorithm", "m", "n", "runtime", "solves")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-20s %3d %4d %12.6f %8d\n", p.Algorithm, p.M, p.NumItems, p.Mean.Seconds(), p.Solves)
	}
}

// InfoLossPoint is one m value of Figure 11: mean squared opinion loss
// Δ(τᵢ, π(Sᵢ)) and mean cosine similarity, for the target item alone and
// for all items.
type InfoLossPoint struct {
	M          int
	LossTarget float64
	LossAll    float64
	CosTarget  float64
	CosAll     float64
}

// Figure11Result is the information-loss trade-off of §4.6.1.
type Figure11Result struct {
	Dataset string
	Points  []InfoLossPoint
}

// Figure11 measures CompaReSetS+ information loss on dataset ds for each m.
func Figure11(w *Workload, ds int, ms []int) (Figure11Result, error) {
	res := Figure11Result{Dataset: w.Corpora[ds].Category}
	for _, m := range ms {
		cfg := Config(m)
		sels, err := w.RunSelector(ds, core.CompaReSetSPlus{}, cfg)
		if err != nil {
			return res, err
		}
		var lossT, lossA, cosT, cosA []float64
		for i, sel := range sels {
			inst := w.Instances[ds][i]
			tg := sel.TargetsFor(inst, cfg)
			st := core.Stats(inst, tg, cfg, sel)
			for item, s := range st {
				cos := linalg.Cosine(tg.Tau[item], s.Pi)
				lossA = append(lossA, s.OpinionLoss)
				cosA = append(cosA, cos)
				if item == 0 {
					lossT = append(lossT, s.OpinionLoss)
					cosT = append(cosT, cos)
				}
			}
		}
		res.Points = append(res.Points, InfoLossPoint{
			M:          m,
			LossTarget: stats.Mean(lossT),
			LossAll:    stats.Mean(lossA),
			CosTarget:  stats.Mean(cosT),
			CosAll:     stats.Mean(cosA),
		})
	}
	return res, nil
}

// Render renders the information-loss series.
func (r Figure11Result) Render(w io.Writer) {
	fmt.Fprintf(w, "%s: CompaReSetS+ information loss vs m\n", r.Dataset)
	fmt.Fprintf(w, "%3s %14s %14s %12s %12s\n", "m", "Δ(τ,π) target", "Δ(τ,π) all", "cos target", "cos all")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%3d %14.4f %14.4f %12.4f %12.4f\n", p.M, p.LossTarget, p.LossAll, p.CosTarget, p.CosAll)
	}
}
