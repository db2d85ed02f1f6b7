// Command perfbench is the repository's serving benchmark. It stands up the
// shipped topology in one process — two service.Server workers with default
// options behind one cluster.Router with default options, each on its own
// loopback HTTP server — and drives one named open-loop workload through
// the router:
//
//	hot_read     400 req/s, zipf(1.2) targets at one shape (m=8, λ=μ=1),
//	             warmed during set-up: the router edge cache answers.
//	cold_select  200 req/s, every request a distinct (target, m∈3..10) key,
//	             a quarter with a k=3 exact shortlist: both response
//	             caches miss and the pipeline stages do the work.
//	write_mix    hot_read's reads plus 10% writes at 200 req/s, cycling
//	             append → update → remove of benchmark-owned reviews.
//
// Build and run it from the repository root:
//
//	bash perfbench/run.sh --workload hot_read --seed 1 --seconds 20 --trace 0
//
// The workload's traffic runs for a 10 s warm-up and then for the timed
// window of --seconds. --trace 0 reports the end-to-end metrics, taken from
// the timed window; --trace 1 times every call into
// the router's and the workers' handlers (in alternating 250ms slices, so
// the tracing overhead is measured too) and reports the per-layer metrics.
// Every layer is measured from outside: handler timings, the program's own
// metrics registries (each read exactly once), its stage histograms, and
// direct core calls that check sampled outputs after the timed window.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// readable report and the run record. The exit code is 1 when any output
// check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name: hot_read, cold_select or write_mix")
		seed     = fs.Int64("seed", 1, "seed of the request sequence")
		seconds  = fs.Int("seconds", 20, "length of the timed window in seconds, which follows a 10 s warm-up")
		trace    = fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := findWorkload(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload hot_read|cold_select|write_mix, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	logger := log.New(stderr, "perfbench: ", 0)
	res, err := bench(spec, *seed, *seconds, *trace == 1, logger)
	if err != nil {
		logger.Print(err)
		return 1
	}
	for _, e := range res.errors {
		logger.Print(e)
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d\n", spec.name, *seed, *seconds, *trace)
	printMetrics(stdout, "end_to_end", res.endToEnd)
	if *trace == 1 {
		printMetrics(stdout, "per_layer", res.perLayer)
	}
	rec, err := json.Marshal(res.record)
	if err != nil {
		logger.Print(err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n", rec)

	gated := map[string]bool{}
	for _, name := range gatedEndToEnd {
		gated[name] = true
	}
	out := map[string]any{}
	for _, m := range res.endToEnd {
		if gated[m.name] && *trace == 0 {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	for _, m := range res.perLayer {
		if *trace == 1 {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	last, err := json.Marshal(map[string]any{
		"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": out,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if !res.correct {
		return 1
	}
	return 0
}

// gatedEndToEnd are the end-to-end metrics BENCHMARK.json gates: those
// every workload has and that are never 0. fail_ratio is gated as
// success_ratio; write latencies and p99 are printed but exist only on
// write_mix or do not repeat closely enough to gate.
var gatedEndToEnd = []string{"setup_s", "p50_ms", "p95_ms", "success_ratio", "cpu_us_per_req", "live_heap_mb"}

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

func printMetrics(w io.Writer, kind string, ms []metric) {
	for _, m := range ms {
		v := fmt.Sprintf("%.6g", m.value)
		if m.n == 0 {
			v = "n/a"
		}
		fmt.Fprintf(w, "%-10s %-34s %14s %-6s n=%d\n", kind, m.name, v, m.unit, m.n)
	}
}
