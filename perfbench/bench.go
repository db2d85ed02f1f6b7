package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"comparesets/internal/dataset"
	"comparesets/internal/obs"
	"comparesets/internal/service"
)

// setupReps is how many times a run sets the topology up; setup_s is the
// median over the quieter half and the last set-up serves the timed window.
const setupReps = 7

// result is one run's findings.
type result struct {
	endToEnd  []metric
	perLayer  []metric
	record    runRecord
	correct   bool
	attempted int
	failed    int
	errors    []string
}

// runRecord is the context a number needs to be compared.
type runRecord struct {
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	CorpusSeed   int64     `json:"corpus_seed"`
	Seconds      int       `json:"seconds"`
	WarmupS      float64   `json:"warmup_s"`
	RateRPS      float64   `json:"rate_rps"`
	Reads        int       `json:"reads"`
	Writes       int       `json:"writes"`
	Traced       bool      `json:"traced"`
	Senders      int       `json:"senders"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	NumCPU       int       `json:"nproc"`
	CPUModel     string    `json:"cpu_model"`
	GoVersion    string    `json:"go_version"`
	Commit       string    `json:"commit"`
	SourceDigest string    `json:"source_sha256"`
	SetupsS      []float64 `json:"setups_s"`
	SetupStealMS []float64 `json:"setup_steal_ms"`
	// Windows holds the per-statWindow steal, CPU per request and whether
	// the window was kept as quiet.
	Windows map[string][]float64 `json:"windows"`
	// Placement names each category's primary worker on the router's ring.
	Placement map[string]string `json:"primary_by_category"`
	Samples   map[string]int    `json:"samples"`
	LayersOff map[string]string `json:"layers_off"`
}

// window is what the program's own instruments read across the timed
// window: each registry is read exactly once at each edge, because the
// in-process workers share obs.Default().
type window struct {
	worker, router map[string]any
	stages         map[string][2]float64 // obs stage → {count, sum seconds}
	mem            runtime.MemStats
}

// pipelineStages are the worker's pipeline stages, by reported layer name.
var pipelineStages = [][2]string{
	{"core.feature_build", obs.StageFeatureBuild},
	{"regress.nomp", obs.StageNOMP},
	{"regress.nnls", obs.StageNNLS},
	{"core.sweep", obs.StageSweep},
	{"featstore.precompute", obs.StagePrecompute},
	{"simgraph.shortlist", obs.StageShortlist},
	{"simgraph.shortlist_exact", obs.StageShortlistExact},
}

// otherStages are the remaining stage histograms the layers report.
var otherStages = []string{obs.StageMutateApply, obs.StageRouterEdge, obs.StageRouterForward}

func readWindow(t *topology) window {
	w := window{
		worker: obs.Default().Snapshot(),
		router: t.router.Registry().Snapshot(),
		stages: map[string][2]float64{},
	}
	stages := otherStages
	for _, s := range pipelineStages {
		stages = append(stages, s[1])
	}
	for _, s := range stages {
		h := obs.StageHistogram(s)
		w.stages[s] = [2]float64{float64(h.Count()), h.Sum()}
	}
	runtime.ReadMemStats(&w.mem)
	return w
}

func bench(spec workloadSpec, seed int64, seconds int, traced bool, logger *log.Logger) (*result, error) {
	// The benchmark's own corpora copy lists the targets here and checks
	// the answers after the window; it is not kept alive across the window,
	// where the collector would scan it with the program's heap.
	own, err := synthesize()
	if err != nil {
		return nil, err
	}
	var targets []target
	var cats []string
	for cat := range own {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		for _, id := range dataset.TargetIDs(own[cat]) {
			targets = append(targets, target{cat, id})
		}
	}
	own = nil
	// The schedule runs warmup and then the timed window; the end-to-end
	// statistics cover only the timed window, everything else all of it.
	total := seconds + int(warmup/time.Second)
	if err := selfTest(spec, seed, total, targets); err != nil {
		return nil, fmt.Errorf("generator self-test: %w", err)
	}
	reqs, err := buildSchedule(spec, seed, total, targets)
	if err != nil {
		return nil, err
	}
	wires := make([]wire, len(reqs))
	keys := make([]string, len(reqs))
	for i, r := range reqs {
		if wires[i], err = r.encode(); err != nil {
			return nil, err
		}
		keys[i] = r.key()
	}
	warmRouter, warmWorkers, err := warmBodies(spec, reqs, targets)
	if err != nil {
		return nil, err
	}

	senders := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	var tr *tracer
	if traced {
		tr = &tracer{}
	}

	// Set-up: synthesize, start, warm — setupReps times; the last serves.
	var setups, setupSteal []float64
	var topo *topology
	for rep := 0; rep < setupReps; rep++ {
		if topo != nil {
			topo.close()
			client.CloseIdleConnections()
		}
		runtime.GC()
		start, steal := time.Now(), stolenCPU()
		if topo, err = startTopology(tr, logger); err != nil {
			return nil, err
		}
		for _, ts := range topo.servers {
			if err := warm(client, ts.URL, warmWorkers, senders); err != nil {
				topo.close()
				return nil, fmt.Errorf("warming a worker: %w", err)
			}
		}
		if err := warm(client, topo.routerTS.URL, warmRouter, senders); err != nil {
			topo.close()
			return nil, fmt.Errorf("warming through the router: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		setupSteal = append(setupSteal, float64(stolenCPU()-steal)/1e6)
	}
	defer topo.close()
	runtime.GC()

	kept := newBodies()
	before := readWindow(topo)
	due := dueTimes(time.Now().Add(20*time.Millisecond), len(reqs), spec.rate)
	outs, gen, err := drive(client, topo.routerTS.URL, reqs, wires, due, senders, tr,
		func(i int, body []byte) uint64 { return kept.add(keys[i], body) })
	if err != nil {
		return nil, fmt.Errorf("pacing the schedule: %w", err)
	}
	after := readWindow(topo)

	// After the window: finish the open write cycles, check every answer,
	// compare the samples with direct core calls, check the corpus size.
	res := &result{attempted: len(reqs), correct: true}
	fail := func(format string, args ...any) {
		res.correct = false
		if len(res.errors) < 10 {
			res.errors = append(res.errors, fmt.Sprintf(format, args...))
		}
	}
	for i, o := range outs {
		if o.err != nil && len(res.errors) < 10 {
			res.errors = append(res.errors, fmt.Sprintf("request %d: %v", i, o.err))
		}
	}
	if own, err = synthesize(); err != nil {
		return nil, err
	}
	chk := newChecker(own, reqs)
	if err := finishCycles(client, topo.routerTS.URL, reqs, chk); err != nil {
		fail("finishing write cycles: %v", err)
	}
	var receipts receiptTotals
	verdicts := map[bodyKey]error{}
	compared := 0
	for i := range outs {
		if !outs[i].ok {
			continue
		}
		k := bodyKey{outs[i].hash, keys[i]}
		err, seen := verdicts[k]
		if !seen {
			err = chk.check(reqs[i], kept.byKey[k], &receipts)
			verdicts[k] = err
		}
		if err == nil && reqs[i].sample {
			compared++
			err = chk.compareCore(reqs[i], kept.byKey[k])
		}
		if err != nil {
			outs[i].ok, outs[i].err = false, err
			fail("output check: %v", err)
		}
	}
	for w, srv := range topo.workers {
		for _, cat := range cats {
			c, _ := srv.Corpus(cat)
			if got, want := c.NumReviews(), own[cat].NumReviews(); got != want {
				fail("worker %d ends with %d %s reviews, started with %d", w, got, cat, want)
			}
		}
	}
	for _, o := range outs {
		if !o.ok {
			res.failed++
		}
	}

	// The live heap: what the serving topology holds once the checks'
	// memory is gone.
	own, chk, kept, verdicts, wires = nil, nil, nil, nil, nil
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(topo)

	windows, e2e := endToEnd(reqs, outs, due, gen, setups, setupSteal, live)
	res.endToEnd = e2e
	if traced {
		res.perLayer = perLayer(reqs, outs, gen, tr, receipts, before, after)
	}
	res.record = record(spec, seed, seconds, traced, senders, reqs, res, compared)
	res.record.SetupsS, res.record.SetupStealMS, res.record.Windows = setups, setupSteal, windows
	res.record.Placement = map[string]string{}
	for _, cat := range cats {
		res.record.Placement[cat] = topo.router.Ring().Placement(cat)[0]
	}
	return res, nil
}

// warmBodies lists the selects set-up sends: hot_read and write_mix warm
// every target at the timed shape through the router (edge and worker
// caches); cold_select warms feature slabs and regression problems on each
// worker with m=2, a shape it never times, for every λ the run uses.
func warmBodies(spec workloadSpec, reqs []request, targets []target) (viaRouter, perWorker [][]byte, err error) {
	var shapes []request
	switch spec.name {
	case "cold_select":
		lambdas := map[float64]bool{}
		for _, r := range reqs {
			lambdas[r.lambda] = true
		}
		for _, l := range coldLambdas {
			if lambdas[l] {
				for _, tg := range targets {
					shapes = append(shapes, request{kind: opSelect, tg: tg, m: warmColdM, lambda: l})
				}
			}
		}
	default:
		for _, tg := range targets {
			shapes = append(shapes, request{kind: opSelect, tg: tg, m: hotM, lambda: 1})
		}
	}
	var bodies [][]byte
	for _, r := range shapes {
		w, err := r.encode()
		if err != nil {
			return nil, nil, err
		}
		bodies = append(bodies, w.body)
	}
	if spec.name == "cold_select" {
		return nil, bodies, nil
	}
	return bodies, nil, nil
}

// finishCycles completes, untimed, the write cycles the window cut short,
// so the corpora end the size they started.
func finishCycles(client *http.Client, base string, reqs []request, chk *checker) error {
	last := map[string]request{}
	for _, r := range reqs {
		if r.kind != opSelect {
			last[r.review] = r
		}
	}
	for _, r := range last {
		for r.kind != opDelete {
			next := request{kind: r.kind + 1, tg: r.tg, review: r.review, after: -1}
			w, err := next.encode()
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			if o := send(client, base, w, time.Now(), &buf); o.err != nil {
				return o.err
			}
			if _, err := chk.checkReceipt(next, buf.Bytes()); err != nil {
				return err
			}
			r = next
		}
	}
	return nil
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// latencies returns the sorted ms latencies of successful ops of the kind.
func latencies(reqs []request, outs []outcome, writes bool, keep func(outcome) bool) []float64 {
	var out []float64
	for i, o := range outs {
		if o.ok && (reqs[i].kind != opSelect) == writes && (keep == nil || keep(o)) {
			out = append(out, float64(o.latency)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// endToEnd computes the user-visible metrics. Read latency and CPU per
// request are pooled over the quiet statWindows of due times after the
// warm-up: those in which the hypervisor stole no more CPU time than in the
// timed window's quietest tenth of windows. On a shared host, steal comes
// in bursts that can cover most of a run and inflate every latency in them;
// the quiet windows measure the program, the others mostly the host. Set-up
// time is the median over the quieter half of the set-ups, by the same
// measure.
func endToEnd(reqs []request, outs []outcome, due []time.Time, gen genStats, setups, setupSteal []float64, live runtime.MemStats) (map[string][]float64, []metric) {
	nw := len(gen.cpu) - 1
	windows := map[string][]float64{}
	for w := 0; w < nw; w++ {
		windows["steal_ms"] = append(windows["steal_ms"], float64(gen.steal[w+1]-gen.steal[w])/1e6)
	}
	timed := min(int(warmup/statWindow), nw-1) // first window after the warm-up
	keep := make([]bool, nw)
	copy(keep[timed:], quiet(windows["steal_ms"][timed:], 0.10))
	var reads []float64
	var keptCPU time.Duration
	keptReqs, done, failed := 0, 0, 0
	sent := make([]float64, nw)
	for i, o := range outs {
		w := min(int(due[i].Sub(due[0])/statWindow), nw-1)
		sent[w]++
		if keep[w] {
			keptReqs++
		}
		if !o.ok {
			failed++
			continue
		}
		done++
		if keep[w] && reqs[i].kind == opSelect {
			reads = append(reads, float64(o.latency)/1e6)
		}
	}
	for w := 0; w < nw; w++ {
		cpu := gen.cpu[w+1] - gen.cpu[w]
		if keep[w] {
			keptCPU += cpu
			windows["kept"] = append(windows["kept"], 1)
		} else {
			windows["kept"] = append(windows["kept"], 0)
		}
		windows["cpu_us_per_req"] = append(windows["cpu_us_per_req"], float64(cpu)/1e3/max(sent[w], 1))
	}
	sort.Float64s(reads)
	var quietSetups []float64
	for i, q := range quiet(setupSteal, 0.5) {
		if q {
			quietSetups = append(quietSetups, setups[i])
		}
	}
	writes := latencies(reqs, outs, true, nil)
	n := len(outs)
	return windows, []metric{
		{"setup_s", median(quietSetups), "s", len(quietSetups)},
		{"p50_ms", percentile(reads, 0.50), "ms", len(reads)},
		{"p95_ms", percentile(reads, 0.95), "ms", len(reads)},
		{"p99_ms", percentile(reads, 0.99), "ms", len(reads)},
		{"fail_ratio", float64(failed) / float64(n), "ratio", n},
		{"success_ratio", float64(done) / float64(n), "ratio", n},
		{"write_p50_ms", percentile(writes, 0.50), "ms", len(writes)},
		{"write_p95_ms", percentile(writes, 0.95), "ms", len(writes)},
		{"cpu_us_per_req", float64(keptCPU) / 1e3 / float64(max(keptReqs, 1)), "us", keptReqs},
		{"live_heap_mb", float64(live.HeapAlloc) / (1 << 20), "MB", 1},
	}
}

// quiet marks the entries whose steal is at most the q-quantile of all of
// them: at least a q share of the entries, more where steal ties.
func quiet(steal []float64, q float64) []bool {
	s := append([]float64(nil), steal...)
	sort.Float64s(s)
	cut := percentile(s, q)
	out := make([]bool, len(steal))
	for i, v := range steal {
		out[i] = v <= cut
	}
	return out
}

// counter reads one series of a registry snapshot.
func counter(snap map[string]any, series string) float64 {
	switch v := snap[series].(type) {
	case uint64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

func delta(before, after map[string]any, series string) float64 {
	return counter(after, series) - counter(before, series)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perLayer(reqs []request, outs []outcome, gen genStats, tr *tracer, rt receiptTotals, before, after window) []metric {
	n := float64(len(outs))
	reads := 0
	tracedReqs := 0
	for i, o := range outs {
		if reqs[i].kind == opSelect {
			reads++
		}
		if o.traced {
			tracedReqs++
		}
	}
	var ms []metric
	add := func(name string, v float64, unit string, samples int) {
		ms = append(ms, metric{name, v, unit, samples})
	}
	rd := func(series string) float64 { return delta(before.router, after.router, series) }
	wd := func(series string) float64 { return delta(before.worker, after.worker, series) }
	stage := func(name string) (count, sumUS float64) {
		b, a := before.stages[name], after.stages[name]
		return a[0] - b[0], (a[1] - b[1]) * 1e6
	}

	// loadgen: validity checks of the generator itself.
	slop := make([]float64, len(gen.slop))
	for i, d := range gen.slop {
		slop[i] = float64(d) / 1e6
	}
	add("loadgen.timer_slop_ms", median(slop), "ms", len(slop))
	add("loadgen.queue_wait_ms", float64(gen.queueWait)/1e6/n, "ms", len(outs))

	// cluster: the wrapped router handler and the router's own registry.
	tr.mu.Lock()
	var routerBusy time.Duration
	for _, d := range tr.routerCalls {
		routerBusy += d
	}
	routerCalls := len(tr.routerCalls)
	workerMS := durationsMS(tr.workerSelect)
	busy := tr.workerBusy
	tr.mu.Unlock()
	add("router.handler_us", ratio(float64(routerBusy)/1e3, float64(routerCalls)), "us", routerCalls)
	hits := rd(`comparesets_cache_hits_total{cache="router_edge"}`)
	misses := rd(`comparesets_cache_misses_total{cache="router_edge"}`)
	add("router.edge_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	c, s := stage(obs.StageRouterEdge)
	add("router.edge_hit_us", ratio(s, c), "us", int(c))
	add("router.edge_coalesced", rd(`comparesets_cache_coalesced_waiters_total{cache="router_edge_flight"}`), "count", reads)
	c, s = stage(obs.StageRouterForward)
	add("router.forward_us", ratio(s, c), "us", int(c))
	var attempts, abandoned, primary float64
	perBackend := map[string]float64{}
	for series := range after.router {
		if !strings.HasPrefix(series, "comparesets_router_forward_total{") {
			continue
		}
		d := rd(series)
		attempts += d
		if strings.Contains(series, `outcome="abandoned"`) {
			abandoned += d
		}
		backend := series[strings.Index(series, `backend="`)+9:]
		backend = backend[:strings.IndexByte(backend, '"')]
		perBackend[backend] += d
	}
	for _, v := range perBackend {
		primary = max(primary, v)
	}
	add("router.upstream_per_read", ratio(attempts, float64(reads)), "ratio", reads)
	add("router.hedges", rd("comparesets_router_hedges_total"), "count", reads)
	add("router.abandoned_ratio", ratio(abandoned, attempts), "ratio", int(attempts))
	add("router.retries", rd("comparesets_router_retries_total"), "count", reads)
	add("router.primary_share", ratio(primary, attempts), "ratio", int(attempts))
	add("router.edge_invalidations_receipt", rd(`comparesets_router_edge_invalidations_total{scope="receipt"}`), "count", len(outs)-reads)
	add("router.edge_invalidations_flush", rd(`comparesets_router_edge_invalidations_total{scope="flush"}`), "count", len(outs)-reads)
	add("router.edge_bytes", counter(after.router, `comparesets_cache_bytes{cache="router_edge"}`), "bytes", 1)

	// service: the wrapped worker handlers and obs.Default().
	add("worker.handler_p50_us", percentile(workerMS, 0.50)*1e3, "us", len(workerMS))
	add("worker.handler_p95_us", percentile(workerMS, 0.95)*1e3, "us", len(workerMS))
	hits = wd(`comparesets_cache_hits_total{cache="servecache"}`)
	misses = wd(`comparesets_cache_misses_total{cache="servecache"}`)
	add("servecache.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	add("selectflight.coalesced", wd(`comparesets_cache_coalesced_waiters_total{cache="selectflight"}`), "count", int(hits+misses))
	add("stalecache.served", wd(`comparesets_degraded_responses_total{reason="stale_cache"}`), "count", int(hits+misses))
	execs := wd(`comparesets_cache_executions_total{cache="selectflight"}`)
	add("encode.bytes_per_exec", ratio(wd("comparesets_encode_bytes_total"), execs), "bytes", int(execs))
	c, s = stage(obs.StageMutateApply)
	add("mutate.apply_us", ratio(s, c), "us", int(c))
	add("mutate.columns_computed", ratio(float64(rt.computed), float64(rt.n)), "count", rt.n)
	add("mutate.columns_reused", ratio(float64(rt.reused), float64(rt.n)), "count", rt.n)
	add("mutate.problems_dropped", ratio(float64(rt.dropped), float64(rt.n)), "count", rt.n)

	// core, regress, featstore, simgraph: stage executions per client
	// request, µs per execution, and share of worker handler busy time.
	// Handler time is recorded only in traced slices, so busy share compares
	// per-request averages.
	busyPerReq := ratio(float64(busy)/1e3, float64(tracedReqs))
	for _, st := range pipelineStages {
		c, s := stage(st[1])
		add(st[0]+".per_req", c/n, "count", int(c))
		add(st[0]+".us", ratio(s, c), "us", int(c))
		add(st[0]+".busy_share", ratio(s/n, busyPerReq), "ratio", int(c))
	}

	// runtime, and the cost of tracing itself.
	done := 0
	for _, o := range outs {
		if o.ok {
			done++
		}
	}
	alloc := float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024
	add("runtime.alloc_kb_per_req", ratio(alloc, float64(done)), "KB", done)
	add("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, "ms", int(after.mem.NumGC-before.mem.NumGC))
	on := latencies(reqs, outs, false, func(o outcome) bool { return o.traced })
	off := latencies(reqs, outs, false, func(o outcome) bool { return !o.traced })
	add("tracing.overhead_pct", (ratio(percentile(on, 0.5), percentile(off, 0.5))-1)*100, "pct", len(on)+len(off))
	return ms
}

func record(spec workloadSpec, seed int64, seconds int, traced bool, senders int, reqs []request, res *result, compared int) runRecord {
	rec := runRecord{
		Workload: spec.name, Seed: seed, CorpusSeed: corpusSeed, Seconds: seconds, WarmupS: warmup.Seconds(), RateRPS: spec.rate,
		Traced: traced, Senders: senders, GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Commit: "unknown", SourceDigest: sourceDigest("."),
		Samples:   map[string]int{"core_compared": compared},
		LayersOff: layersOff(service.Options{}),
	}
	for _, r := range reqs {
		if r.kind == opSelect {
			rec.Reads++
		} else {
			rec.Writes++
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rec.Commit = s.Value
			}
		}
	}
	for _, m := range append(res.endToEnd, res.perLayer...) {
		rec.Samples[m.name] = m.n
	}
	return rec
}

// layersOff records the serving layers the options the topology runs with
// leave disabled, so a deletion can cite the benchmark that never ran them.
func layersOff(o service.Options) map[string]string {
	state := func(off bool, why string) string {
		if off {
			return "off: " + why
		}
		return "on"
	}
	return map[string]string{
		"batchexec":         state(o.BatchWindow <= 0, "service.Options.BatchWindow is 0"),
		"admission_limiter": state(o.MaxInflight <= 0, "service.Options.MaxInflight is 0"),
		"mutation_log":      state(o.MutationLog == nil, "service.Options.MutationLog is nil"),
		"float32":           state(!o.Float32, "service.Options.Float32 is false"),
		"store_page_cache":  "off: workers serve in-memory corpora and open no store",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the repository's Go sources and module files, which
// identifies the code measured where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
