package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSVRows is implemented by every experiment result so the harness can dump
// machine-readable output next to the paper-layout renderings.
type CSVRows interface {
	// CSV returns a header row followed by data rows.
	CSV() [][]string
}

// WriteCSV writes any result's rows as RFC-4180 CSV.
func WriteCSV(w io.Writer, r CSVRows) error {
	cw := csv.NewWriter(w)
	if err := cw.WriteAll(r.CSV()); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
func itoa(v int) string     { return strconv.Itoa(v) }

// CSV implements CSVRows.
func (r Table2Result) CSV() [][]string {
	out := [][]string{{"category", "products", "reviewers", "reviews", "target_products", "avg_comparison", "avg_reviews_per_product"}}
	for _, s := range r.Rows {
		out = append(out, []string{
			s.Category, itoa(s.Products), itoa(s.Reviewers), itoa(s.Reviews),
			itoa(s.TargetProducts), ftoa(s.AvgComparisonProduct), ftoa(s.AvgReviewPerProduct),
		})
	}
	return out
}

// CSV implements CSVRows.
func (r Table3Result) CSV() [][]string {
	out := [][]string{{"dataset", "algorithm", "m", "part", "r1", "r2", "rl", "star_r1", "star_r2", "star_rl"}}
	for _, row := range r.Rows {
		for mi, m := range r.Ms {
			for _, part := range []struct {
				name  string
				cells []Table3Cell
			}{{"target_vs", row.TargetVs}, {"among", row.Among}} {
				c := part.cells[mi]
				out = append(out, []string{
					row.Dataset, row.Algorithm, itoa(m), part.name,
					ftoa(c.Align.R1), ftoa(c.Align.R2), ftoa(c.Align.RL),
					strconv.FormatBool(c.Star[0]), strconv.FormatBool(c.Star[1]), strconv.FormatBool(c.Star[2]),
				})
			}
		}
	}
	return out
}

// CSV implements CSVRows.
func (r Table4Result) CSV() [][]string {
	out := [][]string{{"algorithm", "scheme", "rl"}}
	for ai, alg := range r.Algorithms {
		for si, scheme := range r.Schemes {
			out = append(out, []string{alg, scheme, ftoa(r.RL[ai][si])})
		}
	}
	return out
}

// CSV implements CSVRows.
func (r Table5Result) CSV() [][]string {
	out := [][]string{{"dataset", "k", "optimal_percent", "greedy_ratio", "random_ratio", "budget"}}
	for _, row := range r.Rows {
		out = append(out, []string{
			row.Dataset, itoa(row.K), ftoa(row.OptimalPercent),
			strconv.FormatFloat(row.GreedyRatio, 'f', 6, 64), ftoa(row.RandomRatio), r.Budget.String(),
		})
	}
	return out
}

// CSV implements CSVRows.
func (r Table6Result) CSV() [][]string {
	out := [][]string{{"dataset", "solver", "k", "part", "r1", "r2", "rl"}}
	for _, row := range r.Rows {
		for ki, k := range r.Ks {
			for _, part := range []struct {
				name  string
				cells []Alignment
			}{{"target_vs", row.TargetVs}, {"among", row.Among}} {
				c := part.cells[ki]
				out = append(out, []string{row.Dataset, row.Solver, itoa(k), part.name, ftoa(c.R1), ftoa(c.R2), ftoa(c.RL)})
			}
		}
	}
	return out
}

// CSV implements CSVRows.
func (r Table7Result) CSV() [][]string {
	out := [][]string{{"algorithm", "q1", "q2", "q3", "alpha"}}
	for _, row := range r.Rows {
		out = append(out, []string{row.Algorithm, ftoa(row.Q1), ftoa(row.Q2), ftoa(row.Q3), ftoa(row.Alpha)})
	}
	return out
}

// CSV implements CSVRows.
func (r SweepResult) CSV() [][]string {
	out := [][]string{{"dataset", r.Param, "rl"}}
	for ds, name := range r.Datasets {
		for vi, v := range r.Values {
			out = append(out, []string{name, fmt.Sprintf("%g", v), ftoa(r.RL[ds][vi])})
		}
	}
	return out
}

// CSV implements CSVRows.
func (r Figure6Result) CSV() [][]string {
	out := [][]string{{"dataset", "bucket_lo", "bucket_hi", "instances", "plus_gap_target", "crs_gap_target", "plus_gap_among", "crs_gap_among"}}
	for _, b := range r.Buckets {
		out = append(out, []string{
			r.Dataset, ftoa(b.Lo), ftoa(b.Hi), itoa(b.Instances),
			ftoa(b.PlusGapTarget), ftoa(b.CrsGapTarget), ftoa(b.PlusGapAmong), ftoa(b.CrsGapAmong),
		})
	}
	return out
}

// CSV implements CSVRows.
func (r Figure7Result) CSV() [][]string {
	out := [][]string{{"dataset", "algorithm", "m", "n", "runtime_seconds"}}
	for _, p := range r.Points {
		out = append(out, []string{r.Dataset, p.Algorithm, itoa(p.M), itoa(p.NumItems), strconv.FormatFloat(p.Mean.Seconds(), 'f', 6, 64)})
	}
	return out
}

// CSV implements CSVRows.
func (r Figure11Result) CSV() [][]string {
	out := [][]string{{"dataset", "m", "loss_target", "loss_all", "cos_target", "cos_all"}}
	for _, p := range r.Points {
		out = append(out, []string{r.Dataset, itoa(p.M), ftoa(p.LossTarget), ftoa(p.LossAll), ftoa(p.CosTarget), ftoa(p.CosAll)})
	}
	return out
}

// CSV implements CSVRows.
func (r HkSStressResult) CSV() [][]string {
	out := [][]string{{"n", "k", "budget", "optimal_percent", "greedy_ratio", "localsearch_ratio", "removal_ratio", "topk_ratio", "random_ratio", "mean_exact_seconds"}}
	for _, row := range r.Rows {
		out = append(out, []string{
			itoa(row.N), itoa(r.K), r.Budget.String(), ftoa(row.OptimalPercent),
			ftoa(row.GreedyRatio), ftoa(row.LocalSearchRatio), ftoa(row.RemovalRatio),
			ftoa(row.TopKRatio), ftoa(row.RandomRatio),
			strconv.FormatFloat(row.MeanExactTime.Seconds(), 'f', 6, 64),
		})
	}
	return out
}

// CSV implements CSVRows.
func (r PassesResult) CSV() [][]string {
	out := [][]string{{"dataset", "m", "passes", "objective", "rl_target", "rl_among", "seconds_per_instance"}}
	for _, row := range r.Rows {
		out = append(out, []string{
			r.Dataset, itoa(r.M), itoa(row.Passes), ftoa(row.Objective),
			ftoa(row.TargetRL), ftoa(row.AmongRL),
			strconv.FormatFloat(row.MeanTime.Seconds(), 'f', 6, 64),
		})
	}
	return out
}
