// Command bench runs the core micro-benchmarks and records their results as
// JSON, so performance changes leave a reviewable trajectory in the repo:
// each PR that touches the hot path re-runs `make bench-json` and the diff
// of BENCH_core.json shows ns/op, B/op, and allocs/op before and after.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int64   `json:"iterations"`
	Package     string  `json:"package"`
}

// Report is the BENCH_core.json document.
type Report struct {
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Generated  string            `json:"generated"`
	Benchtime  string            `json:"benchtime"`
	Packages   []string          `json:"packages"`
	Results    map[string]Result `json:"results"`
}

// benchLine matches `BenchmarkName-8  30  136568 ns/op  190648 B/op  1269 allocs/op`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	out := flag.String("out", "BENCH_core.json", "output JSON path")
	pattern := flag.String("bench", ".", "benchmark name pattern passed to -bench")
	benchtime := flag.String("benchtime", "50x", "value passed to -benchtime")
	flag.Parse()
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = []string{
			"./internal/core/", "./internal/regress/", "./internal/linalg/",
			"./internal/store/",
		}
	}

	report := Report{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Benchtime:  *benchtime,
		Packages:   pkgs,
		Results:    map[string]Result{},
	}
	for _, pkg := range pkgs {
		if err := runPackage(&report, pkg, *pattern, *benchtime); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", pkg, err)
			os.Exit(1)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", *out, err)
		os.Exit(1)
	}

	names := make([]string, 0, len(report.Results))
	for name := range report.Results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := report.Results[name]
		fmt.Printf("%-40s %12.0f ns/op %10d B/op %8d allocs/op\n",
			name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	fmt.Printf("wrote %d benchmarks to %s\n", len(names), *out)
}

func runPackage(report *Report, pkg, pattern, benchtime string) error {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern,
		"-benchmem", "-benchtime", benchtime, pkg)
	cmd.Stderr = os.Stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	sc := bufio.NewScanner(outPipe)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		var bytes, allocs int64
		if m[4] != "" {
			bytes, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			allocs, _ = strconv.ParseInt(m[5], 10, 64)
		}
		report.Results[m[1]] = Result{
			NsPerOp:     ns,
			BytesPerOp:  bytes,
			AllocsPerOp: allocs,
			Iterations:  iters,
			Package:     pkg,
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return cmd.Wait()
}
