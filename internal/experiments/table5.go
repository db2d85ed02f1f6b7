package experiments

import (
	"fmt"
	"io"
	"time"

	"comparesets/internal/core"
	"comparesets/internal/simgraph"
)

// Table5Row is one (dataset, k) row of Table 5: the fraction of instances
// the exact solver proved optimal within its budget, and the objective-value
// ratios (Eq. 8) of the greedy and random approximations against it.
type Table5Row struct {
	Dataset        string
	K              int
	OptimalPercent float64
	GreedyRatio    float64 // (Ω_greedy − Ω_ILP) / Ω_ILP, in percent
	RandomRatio    float64
}

// Table5Result is the TargetHkS optimal-vs-approximation comparison.
type Table5Result struct {
	Budget time.Duration
	Rows   []Table5Row
}

// shortlistInputs runs CompaReSetS+ with m = k and builds the per-instance
// similarity graphs (§3.1). Shared by Tables 5 and 6.
func shortlistInputs(w *Workload, ds, k int) ([]*core.Selection, []*simgraph.Graph, error) {
	cfg := Config(k) // k = m for simplicity (§4.1.4)
	sels, err := w.RunSelector(ds, core.CompaReSetSPlus{}, cfg)
	if err != nil {
		return nil, nil, err
	}
	graphs := make([]*simgraph.Graph, len(sels))
	for i, sel := range sels {
		inst := w.Instances[ds][i]
		graphs[i] = simgraph.Build(core.Stats(inst, sel.TargetsFor(inst, cfg), cfg, sel), cfg)
	}
	return sels, graphs, nil
}

// Table5 evaluates TargetHkS_Greedy and Random against the exact solver
// under the given time budget for every dataset and k.
func Table5(w *Workload, ks []int, budget time.Duration) (Table5Result, error) {
	res := Table5Result{Budget: budget}
	for ds := range w.Corpora {
		for _, k := range ks {
			_, graphs, err := shortlistInputs(w, ds, k)
			if err != nil {
				return res, err
			}
			var optimal, total float64
			var ilpSum, greedySum, randomSum float64
			for i, g := range graphs {
				if g.N() < 2 {
					continue
				}
				total++
				ilp := (simgraph.Exact{Budget: budget}).Solve(g, k)
				if ilp.Optimal {
					optimal++
				}
				greedy := (simgraph.Greedy{}).Solve(g, k)
				random := (simgraph.RandomShortlist{Seed: w.Seed + int64(i)}).Solve(g, k)
				ilpSum += ilp.Weight
				greedySum += greedy.Weight
				randomSum += random.Weight
			}
			row := Table5Row{Dataset: w.Corpora[ds].Category, K: k}
			if total > 0 {
				row.OptimalPercent = 100 * optimal / total
			}
			if ilpSum > 0 {
				row.GreedyRatio = 100 * (greedySum - ilpSum) / ilpSum
				row.RandomRatio = 100 * (randomSum - ilpSum) / ilpSum
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Render renders the table in the paper's layout.
func (r Table5Result) Render(w io.Writer) {
	fmt.Fprintf(w, "(exact-solver budget %v)\n", r.Budget)
	fmt.Fprintf(w, "%-10s %3s %18s %22s %12s\n", "Dataset", "k", "#Optimal Solution", "TargetHkS_Greedy", "Random")
	lastDS := ""
	for _, row := range r.Rows {
		ds := row.Dataset
		if ds == lastDS {
			ds = ""
		} else {
			lastDS = ds
		}
		fmt.Fprintf(w, "%-10s %3d %17.2f%% %21.5f%% %11.2f%%\n",
			ds, row.K, row.OptimalPercent, row.GreedyRatio, row.RandomRatio)
	}
}
