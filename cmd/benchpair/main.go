// Command benchpair is the serving benchmark's regression gate. It runs the
// benchmark that BENCHMARK.json declares (perfbench) in the working tree
// and in a parent commit, pair by pair, and fails when the working tree is
// worse:
//
//	go run ./cmd/benchpair <parent-ref>
//
// Start it from the repository root. The parent is checked out into a
// temporary git worktree, which is removed on exit. Every workload in
// BENCHMARK.json runs `pairs` times on each side, for run_seconds each,
// with the same seed on both sides of a pair; the side that runs first
// alternates from pair to pair, so drift in machine load falls on both.
//
// For every (workload, end-to-end metric) it prints each side's median and
// quartiles. It exits 1 when a change median is worse than the parent
// median by more than the metric's relative bound in BENCHMARK.json, when
// any run fails its answer check, or when the change fails a larger share
// of its operations than the parent. It exits 2 when the comparison cannot
// run, including a run that ends without printing its result line.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// pairs is the number of parent/change run pairs per workload. Three is
// the fewest whose median ignores one slow run per side: with two, one
// cold_select run at p95 4.6 ms (against 2.6 ms) failed unchanged trees.
// On a 2-vCPU VM three pairs fail a 1.5 ms injected select latency on
// every workload, but hot_read setup_s, whose runs drift by up to 30%
// with machine load, can still fail unchanged trees (ROADMAP, "One
// benchmark, one gate").
const pairs = 3

// benchmarkSpec is the part of BENCHMARK.json the gate reads.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// metricSpec is one gated end-to-end metric: which direction is better and
// the largest relative worsening of the median the gate lets pass.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runResult is one benchmark run as the gate sees it.
type runResult struct {
	// ok is false when the run exited non-zero or reported a failed
	// answer check.
	ok        bool
	attempted int
	failed    int
	metrics   map[string]float64
}

// summary is one side's spread of one metric.
type summary struct {
	q1, median, q3 float64
}

// row is one (workload, metric) line of the report.
type row struct {
	metric         metricSpec
	parent, change summary
}

func main() {
	if len(os.Args) != 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprintln(os.Stderr, "usage: go run ./cmd/benchpair <parent-ref>")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	pass, err := gate(ctx, os.Args[1], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(2)
	}
	if !pass {
		os.Exit(1)
	}
}

// gate runs every pair and prints the report. It returns false when the
// change fails the gate, and an error when the comparison could not run.
func gate(ctx context.Context, parentRef string, out io.Writer) (bool, error) {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	changeDir, err := os.Getwd()
	if err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	parentDir := filepath.Join(tmp, "parent")
	if err := git(ctx, "worktree", "add", "--detach", parentDir, parentRef); err != nil {
		return false, err
	}
	defer func() {
		// The worktree's own cleanup must run even after an interrupt.
		if err := git(context.Background(), "worktree", "remove", "--force", parentDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchpair:", err)
		}
	}()

	pass := true
	for _, w := range spec.Workloads {
		var parent, change []runResult
		for i := 0; i < pairs; i++ {
			seed := i + 1
			sides := []string{"parent", "change"}
			if i%2 == 1 {
				sides[0], sides[1] = sides[1], sides[0]
			}
			for _, side := range sides {
				dir := changeDir
				if side == "parent" {
					dir = parentDir
				}
				res, err := runOnce(ctx, dir, spec, w.Name, seed)
				if err != nil {
					return false, err
				}
				fmt.Fprintf(out, "%s seed=%d %-6s %s\n", w.Name, seed, side, describe(res, spec.EndToEnd))
				if side == "parent" {
					parent = append(parent, res)
				} else {
					change = append(change, res)
				}
			}
		}
		rows, fails := verdict(spec.EndToEnd, parent, change)
		printRows(out, w.Name, rows)
		for _, f := range fails {
			fmt.Fprintf(out, "FAIL %s %s\n", w.Name, f)
			pass = false
		}
	}
	if pass {
		fmt.Fprintf(out, "PASS: no end-to-end median worse than %s by more than its bound\n", parentRef)
	}
	return pass, nil
}

// readSpec loads and checks the gate's view of BENCHMARK.json.
func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(spec.Command) == 0 || spec.RunSeconds < 1 || len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 {
		return spec, fmt.Errorf("%s: need command, run_seconds, workloads and end_to_end", path)
	}
	for _, m := range spec.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || m.Bound < 0 {
			return spec, fmt.Errorf("%s: metric %s: better must be lower or higher and bound non-negative", path, m.Name)
		}
	}
	return spec, nil
}

func git(ctx context.Context, args ...string) error {
	cmd := exec.CommandContext(ctx, "git", args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, bytes.TrimSpace(out))
	}
	return nil
}

// runOnce runs the benchmark command in dir for one workload and seed. A
// run that exits non-zero but still prints its result line is a failed
// answer check, not an error; only a run that prints none is an error.
func runOnce(ctx context.Context, dir string, spec benchmarkSpec, workload string, seed int) (runResult, error) {
	args := append(spec.Command[1:len(spec.Command):len(spec.Command)],
		"--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(spec.RunSeconds), "--trace", "0")
	cmd := exec.CommandContext(ctx, spec.Command[0], args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	if ctx.Err() != nil {
		return runResult{}, ctx.Err()
	}
	res, err := parseResult(stdout.Bytes())
	if err != nil {
		return runResult{}, fmt.Errorf("%s in %s: %v (run error: %v)\n%s", workload, dir, err, runErr, tail(stderr.String(), 20))
	}
	for _, m := range spec.EndToEnd {
		if _, ok := res.metrics[m.Name]; !ok {
			return runResult{}, fmt.Errorf("%s in %s: result line lacks metric %s", workload, dir, m.Name)
		}
	}
	if runErr != nil {
		res.ok = false
		os.Stderr.WriteString(tail(stderr.String(), 20))
	}
	return res, nil
}

// parseResult reads the benchmark's last output line: one JSON object with
// correct, attempted, failed and the metrics' values.
func parseResult(stdout []byte) (runResult, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var last struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Metrics == nil {
		return runResult{}, errors.New("no result line on standard output")
	}
	res := runResult{ok: last.Correct, attempted: last.Attempted, failed: last.Failed, metrics: map[string]float64{}}
	for name, m := range last.Metrics {
		res.metrics[name] = m.Value
	}
	return res, nil
}

// verdict compares one workload's parent and change runs. It returns a
// report row per metric and the reasons the change fails, if any.
func verdict(metrics []metricSpec, parent, change []runResult) ([]row, []string) {
	var fails []string
	for _, side := range []struct {
		name string
		runs []runResult
	}{{"parent", parent}, {"change", change}} {
		for i, r := range side.runs {
			if !r.ok {
				fails = append(fails, fmt.Sprintf("%s run %d failed its answer check", side.name, i+1))
			}
		}
	}
	if p, c := failedShare(parent), failedShare(change); c > p {
		fails = append(fails, fmt.Sprintf("change failed %.4g%% of its operations, parent %.4g%%", 100*c, 100*p))
	}
	var rows []row
	for _, m := range metrics {
		r := row{metric: m, parent: summarize(values(parent, m.Name)), change: summarize(values(change, m.Name))}
		rows = append(rows, r)
		if worse(m, r.parent.median, r.change.median) {
			fails = append(fails, fmt.Sprintf("%s: change median %.4g vs parent %.4g (%+.1f%%, %s is better, bound %.0f%%)",
				m.Name, r.change.median, r.parent.median, 100*relChange(r.parent.median, r.change.median), m.Better, 100*m.Bound))
		}
	}
	return rows, fails
}

// worse reports whether the change value is worse than the parent value by
// more than the metric's relative bound. A change exactly at the bound
// passes.
func worse(m metricSpec, parent, change float64) bool {
	if m.Better == "higher" {
		return change < parent*(1-m.Bound)
	}
	return change > parent*(1+m.Bound)
}

// relChange is (change − parent) / parent, for the report; against a
// parent of 0 it is 0 for an equal change and infinite otherwise.
func relChange(parent, change float64) float64 {
	if parent == 0 {
		if change == 0 {
			return 0
		}
		return math.Inf(int(math.Copysign(1, change)))
	}
	return (change - parent) / parent
}

func failedShare(runs []runResult) float64 {
	var attempted, failed int
	for _, r := range runs {
		attempted += r.attempted
		failed += r.failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func values(runs []runResult, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.metrics[name])
	}
	return out
}

// summarize returns the quartiles of xs, interpolating between order
// statistics.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{q1: quantile(s, 0.25), median: quantile(s, 0.5), q3: quantile(s, 0.75)}
}

// quantile reads the q-quantile of sorted s by linear interpolation.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func describe(r runResult, metrics []metricSpec) string {
	var b strings.Builder
	if r.ok {
		b.WriteString("ok  ")
	} else {
		b.WriteString("FAILED")
	}
	for _, m := range metrics {
		fmt.Fprintf(&b, " %s=%.4g", m.Name, r.metrics[m.Name])
	}
	return b.String()
}

func printRows(out io.Writer, workload string, rows []row) {
	fmt.Fprintf(out, "%-12s %-15s %28s %28s %8s %6s\n", workload, "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "bound")
	for _, r := range rows {
		fmt.Fprintf(out, "%-12s %-15s %28s %28s %+7.1f%% %5.0f%%\n", workload, r.metric.Name,
			spread(r.parent), spread(r.change), 100*relChange(r.parent.median, r.change.median), 100*r.metric.Bound)
	}
}

func spread(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.median, s.q1, s.q3)
}

// tail returns the last n lines of s.
func tail(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n") + "\n"
}
