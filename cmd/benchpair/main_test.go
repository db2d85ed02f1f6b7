package main

import (
	"strings"
	"testing"
)

var (
	latency = metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.25}
	success = metricSpec{Name: "success_ratio", Better: "higher", Bound: 0.01}
)

// runs builds one passing run per value of the metric, each with 1000
// attempted operations of which failed fail.
func runs(metric string, failed int, vals ...float64) []runResult {
	var out []runResult
	for _, v := range vals {
		out = append(out, runResult{ok: true, attempted: 1000, failed: failed, metrics: map[string]float64{metric: v}})
	}
	return out
}

func TestVerdict(t *testing.T) {
	cases := []struct {
		name           string
		metric         metricSpec
		parent, change []runResult
		// fail is a substring every failure report must contain; empty
		// means the change passes.
		fail string
	}{
		{"lower: equal", latency, runs("p50_ms", 0, 1, 1, 1), runs("p50_ms", 0, 1, 1, 1), ""},
		{"lower: better", latency, runs("p50_ms", 0, 2, 2, 2), runs("p50_ms", 0, 1, 1, 1), ""},
		{"lower: exactly at the bound", latency, runs("p50_ms", 0, 2, 2, 2), runs("p50_ms", 0, 2.5, 2.5, 2.5), ""},
		{"lower: past the bound", latency, runs("p50_ms", 0, 2, 2, 2), runs("p50_ms", 0, 2.51, 2.51, 2.51), "p50_ms"},
		// The bound is relative: +0.3 ms passes on a 2 ms parent and
		// fails on a 1 ms one.
		{"lower: relative, large parent", latency, runs("p50_ms", 0, 2), runs("p50_ms", 0, 2.3), ""},
		{"lower: relative, small parent", latency, runs("p50_ms", 0, 1), runs("p50_ms", 0, 1.3), "p50_ms"},
		// Medians decide: one slow change run among three does not fail.
		{"lower: median, not worst run", latency, runs("p50_ms", 0, 1, 1, 1), runs("p50_ms", 0, 1, 9, 1.1), ""},
		{"lower: median worse", latency, runs("p50_ms", 0, 1, 1, 1), runs("p50_ms", 0, 1.3, 9, 1), "p50_ms"},
		{"higher: equal", success, runs("success_ratio", 0, 1, 1), runs("success_ratio", 0, 1, 1), ""},
		{"higher: better", success, runs("success_ratio", 0, 0.5), runs("success_ratio", 0, 1), ""},
		{"higher: exactly at the bound", success, runs("success_ratio", 0, 0.5), runs("success_ratio", 0, 0.495), ""},
		{"higher: past the bound", success, runs("success_ratio", 0, 1), runs("success_ratio", 0, 0.98), "success_ratio"},
		// 0.007 below a 0.5 parent is 1.4%: past a 1% relative bound,
		// though within 0.01 absolute.
		{"higher: relative, small parent", success, runs("success_ratio", 0, 0.5), runs("success_ratio", 0, 0.493), "success_ratio"},
		{"failed answer check", latency, runs("p50_ms", 0, 1),
			[]runResult{{ok: false, attempted: 1000, metrics: map[string]float64{"p50_ms": 1}}}, "answer check"},
		{"failed answer check on the parent", latency,
			[]runResult{{ok: false, attempted: 1000, metrics: map[string]float64{"p50_ms": 1}}}, runs("p50_ms", 0, 1), "answer check"},
		{"larger failed share", latency, runs("p50_ms", 1, 1, 1), runs("p50_ms", 2, 1, 1), "operations"},
		{"smaller failed share", latency, runs("p50_ms", 2, 1, 1), runs("p50_ms", 1, 1, 1), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rows, fails := verdict([]metricSpec{c.metric}, c.parent, c.change)
			if len(rows) != 1 || rows[0].metric != c.metric {
				t.Fatalf("rows = %+v, want one row for %s", rows, c.metric.Name)
			}
			switch {
			case c.fail == "" && len(fails) > 0:
				t.Errorf("change should pass, got %q", fails)
			case c.fail != "" && len(fails) == 0:
				t.Errorf("change should fail naming %q, passed", c.fail)
			}
			for _, f := range fails {
				if !strings.Contains(f, c.fail) {
					t.Errorf("failure %q does not name %q", f, c.fail)
				}
			}
		})
	}
}

func TestSummarize(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want summary
	}{
		{[]float64{3}, summary{3, 3, 3}},
		{[]float64{4, 1}, summary{1.75, 2.5, 3.25}},
		{[]float64{5, 1, 3, 2, 4}, summary{2, 3, 4}},
	} {
		if got := summarize(c.xs); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}

func TestParseResult(t *testing.T) {
	out := "perfbench cold_select seed=1 seconds=20 trace=0\n" +
		"record {}\n" +
		`{"attempted":4000,"correct":false,"failed":3,"metrics":{"p50_ms":{"unit":"ms","value":1.6}}}` + "\n"
	res, err := parseResult([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if res.ok || res.attempted != 4000 || res.failed != 3 || res.metrics["p50_ms"] != 1.6 {
		t.Errorf("parsed %+v", res)
	}
	if _, err := parseResult([]byte("perfbench: listen tcp: address already in use\n")); err == nil {
		t.Error("output without a result line should be an error")
	}
}

// TestBenchmarkSpec checks the gate can read the repository's
// BENCHMARK.json: its only source of workloads, metrics and bounds.
func TestBenchmarkSpec(t *testing.T) {
	spec, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range spec.EndToEnd {
		names[m.Name] = true
	}
	for _, want := range []string{"p50_ms", "p95_ms", "success_ratio"} {
		if !names[want] {
			t.Errorf("BENCHMARK.json end_to_end lacks %s", want)
		}
	}
}
