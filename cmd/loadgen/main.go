// Command loadgen drives open-loop load at the select endpoint and records
// the latency and accelerator curves as JSON, so serving-edge changes leave
// a reviewable trajectory in the repo the same way BENCH_core.json does for
// the kernels.
//
// Item popularity is zipfian — a handful of hot targets absorb most of the
// traffic, which is what the select result cache is sized for — and arrival
// is open-loop: requests launch on a fixed schedule derived from the target
// rate whether or not earlier requests have returned, so a slow server
// accumulates in-flight work and the tail shows it (closed-loop generators
// hide exactly that). A tunable fraction of requests are corpus writes
// (review appends), which invalidate the touched item's cached selections
// and keep the read path honest under churn.
//
// With no -addr, loadgen serves itself: it synthesizes the three default
// corpora and runs the full service handler in-process over loopback HTTP,
// which is how the CI smoke stays hermetic. Against -addr it is a plain
// HTTP client; a comma-separated -addr list round-robins requests across
// the targets (a router plus direct replicas, or a replica set) and the
// report gains per-target sent/ok/shed/error/availability columns.
// -min-availability gates the run on the fraction of 200s — the
// chaos-cluster target uses it to assert the routing tier masks a killed
// replica.
//
// -cluster N stands up N in-process worker replicas behind an in-process
// router and compares the two serving paths: a warm/cold probe measures the
// router's edge-cache fast path per request (cold proxied solve vs warm
// edge replay, recorded as Report.WarmCold with the edge hit ratio), then
// every rate stage runs twice — once through the router (mode "router"),
// once round-robin against the replicas (mode "direct") — which is what
// BENCH_router.json records. -baseline gating keys stages by (mode, rate)
// and additionally gates the warm-hit p99 against -warm-floor-us noise.
//
// After each rate stage it scrapes /metrics and differences the counters,
// recording cache hit rate, shed count, and encoder bytes next to the
// client-side p50/p90/p99. -baseline compares the run against a committed
// BENCH_load.json and fails (exit 1) when any rate's p99 regresses more
// than -max-regress over the baseline — the CI perf gate.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"comparesets/internal/cluster"
	"comparesets/internal/datagen"
	"comparesets/internal/model"
	"comparesets/internal/service"
)

// target is one (category, item) the generator can reference.
type target struct {
	category string
	item     string
}

// TargetStats is one -addr target's share of a rate stage — the per-backend
// error and availability breakdown that makes multi-target (router or
// replica-set) runs reviewable.
type TargetStats struct {
	Addr         string  `json:"addr"`
	Sent         int     `json:"sent"`
	OK           int     `json:"ok"`
	Shed         int     `json:"shed"`
	Errors       int     `json:"errors"`
	Availability float64 `json:"availability"`
}

// RateRun is the recorded outcome of one rate stage.
type RateRun struct {
	// Mode tags cluster-comparison stages: "router" (through the routing
	// tier and its edge cache) or "direct" (round-robin to the replicas).
	// Empty outside -cluster runs.
	Mode     string  `json:"mode,omitempty"`
	Rate     float64 `json:"rate_rps"`
	Sent     int     `json:"sent"`
	OK       int     `json:"ok"`
	Shed     int     `json:"shed"`
	Errors   int     `json:"errors"`
	Writes   int     `json:"writes"`
	ShedRate float64 `json:"shed_rate"`
	// Availability is the fraction of requests answered 200 — the headline
	// number a chaos run gates on.
	Availability float64 `json:"availability"`
	P50MS        float64 `json:"p50_ms"`
	P90MS        float64 `json:"p90_ms"`
	P99MS        float64 `json:"p99_ms"`
	MaxMS        float64 `json:"max_ms"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheMiss    uint64  `json:"cache_misses"`
	CacheRate    float64 `json:"cache_hit_rate"`
	EncodeByte   uint64  `json:"encode_bytes"`
	// Edge counters are populated when the scraped target is a router:
	// warm reads answered at the routing tier without an upstream exchange.
	EdgeHits uint64  `json:"edge_hits,omitempty"`
	EdgeMiss uint64  `json:"edge_misses,omitempty"`
	EdgeRate float64 `json:"edge_hit_rate,omitempty"`
	// PerTarget breaks the stage down by -addr target when more than one
	// was given (omitted for single-target runs to keep the schema stable).
	PerTarget []TargetStats `json:"per_target,omitempty"`
}

// WarmCold is the -cluster mode's per-request edge-cache probe: the same
// select issued cold (proxied through to a worker's full solve) and warm
// (replayed from the router's edge cache), over a spread of targets.
type WarmCold struct {
	Probes    int     `json:"probes"`
	ColdP50MS float64 `json:"cold_p50_ms"`
	ColdP99MS float64 `json:"cold_p99_ms"`
	WarmP50US float64 `json:"warm_p50_us"`
	WarmP99US float64 `json:"warm_p99_us"`
	// SpeedupP50 is cold p50 over warm p50 — the headline edge-cache win.
	SpeedupP50 float64 `json:"speedup_p50"`
	// HitRatio is edge hits / (hits + misses) across the probe phase.
	HitRatio float64 `json:"edge_hit_ratio"`
}

// Report is the BENCH_load.json / BENCH_router.json document.
type Report struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	Generated  string  `json:"generated"`
	SelfServe  bool    `json:"self_serve"`
	Duration   string  `json:"duration_per_rate"`
	WriteRatio float64 `json:"write_ratio"`
	ZipfS      float64 `json:"zipf_s"`
	Targets    int     `json:"targets"`
	// Cluster is the -cluster replica count (0 outside cluster runs).
	Cluster  int       `json:"cluster,omitempty"`
	WarmCold *WarmCold `json:"warm_cold,omitempty"`
	Runs     []RateRun `json:"runs"`
}

func main() {
	var (
		addr        = flag.String("addr", "", "comma-separated server base URLs, round-robin (empty = serve the synthetic corpora in-process)")
		rates       = flag.String("rates", "50,100,200", "comma-separated open-loop arrival rates in req/s")
		duration    = flag.Duration("duration", 3*time.Second, "wall-clock length of each rate stage")
		writeRatio  = flag.Float64("write-ratio", 0, "fraction of requests that append a review instead of selecting")
		zipfS       = flag.Float64("zipf-s", 1.2, "zipf exponent of target popularity (>1)")
		seed        = flag.Int64("seed", 1, "rng seed (target draws, write payloads, self-serve corpora)")
		m           = flag.Int("m", 3, "reviews selected per item")
		maxInfl     = flag.Int("max-inflight", 0, "self-serve admission bound (0 = unlimited; >0 exercises shedding)")
		out         = flag.String("out", "BENCH_load.json", "output JSON path")
		baseline    = flag.String("baseline", "", "committed BENCH_load.json to gate against (empty = no gate)")
		maxRegress  = flag.Float64("max-regress", 0.25, "max allowed fractional p99 regression vs -baseline")
		floorMS     = flag.Float64("regress-floor-ms", 2, "ignore regressions while both p99s are under this many ms")
		minAvail    = flag.Float64("min-availability", 0, "fail unless every rate's availability (200s/sent) reaches this fraction (0 = no gate)")
		clusterN    = flag.Int("cluster", 0, "serve N in-process replicas behind an in-process router and compare routed vs direct serving (requires empty -addr)")
		warmFloorUS = flag.Float64("warm-floor-us", 250, "ignore warm-hit p99 regressions while both sit under this many microseconds")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "loadgen: ", log.LstdFlags)

	rateList, err := parseRates(*rates)
	if err != nil {
		logger.Fatal(err)
	}

	var report Report
	if *clusterN > 0 {
		if *addr != "" {
			logger.Fatal("-cluster and -addr are mutually exclusive")
		}
		if *clusterN < 2 {
			logger.Fatal("-cluster needs at least 2 replicas to compare against")
		}
		report, err = runClusterComparison(*clusterN, rateList, *duration, *writeRatio, *zipfS, *seed, *m, *maxInfl, logger)
		if err != nil {
			logger.Fatal(err)
		}
	} else {
		var bases []string
		for _, a := range strings.Split(*addr, ",") {
			if a = strings.TrimSpace(a); a != "" {
				bases = append(bases, strings.TrimRight(a, "/"))
			}
		}
		if len(bases) == 0 {
			ts, err := selfServe(*seed, *maxInfl, logger)
			if err != nil {
				logger.Fatal(err)
			}
			defer ts.Close()
			bases = []string{ts.URL}
		}

		targets, err := discoverTargets(bases[0])
		if err != nil {
			logger.Fatal(err)
		}
		if len(targets) == 0 {
			logger.Fatal("no qualifying targets on the server")
		}
		logger.Printf("%d targets across the loaded corpora", len(targets))

		report = Report{
			GoVersion:  runtime.Version(),
			NumCPU:     runtime.NumCPU(),
			Generated:  time.Now().UTC().Format(time.RFC3339),
			SelfServe:  *addr == "",
			Duration:   duration.String(),
			WriteRatio: *writeRatio,
			ZipfS:      *zipfS,
			Targets:    len(targets),
		}
		for _, rate := range rateList {
			run, err := runStage(bases, targets, rate, *duration, *writeRatio, *zipfS, *seed, *m, "")
			if err != nil {
				logger.Fatal(err)
			}
			logStage(logger, run)
			report.Runs = append(report.Runs, run)
		}
	}

	if err := writeReportFile(*out, report); err != nil {
		logger.Fatal(err)
	}
	logger.Printf("wrote %s", *out)

	if *baseline != "" {
		if err := gate(*baseline, report, *maxRegress, *floorMS, *warmFloorUS); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("p99 within %.0f%% of %s at every rate", 100**maxRegress, *baseline)
	}
	if *minAvail > 0 {
		for _, run := range report.Runs {
			if run.Availability < *minAvail {
				logger.Fatalf("availability gate: %.4f at %.0f req/s, need >= %.4f",
					run.Availability, run.Rate, *minAvail)
			}
		}
		logger.Printf("availability >= %.2f%% at every rate", 100**minAvail)
	}
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		rate, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || rate <= 0 {
			return nil, fmt.Errorf("bad rate %q", f)
		}
		out = append(out, rate)
	}
	return out, nil
}

func logStage(logger *log.Logger, run RateRun) {
	mode := run.Mode
	if mode == "" {
		mode = "serve"
	}
	logger.Printf("%s %.0f req/s: sent %d ok %d shed %d avail %.2f%% p50 %.2fms p99 %.2fms cache %.0f%% edge %.0f%%",
		mode, run.Rate, run.Sent, run.OK, run.Shed, 100*run.Availability, run.P50MS, run.P99MS,
		100*run.CacheRate, 100*run.EdgeRate)
}

// runClusterComparison is the -cluster mode: N identical in-process replicas
// behind an in-process router, a warm/cold edge probe, then every rate
// staged twice — through the router and directly against the replicas. The
// router stages run first so direct-mode writes (which land on single
// replicas and diverge them) cannot poison the routed measurements.
func runClusterComparison(n int, rates []float64, duration time.Duration, writeRatio, zipfS float64, seed int64, m, maxInflight int, logger *log.Logger) (Report, error) {
	workerURLs := make([]string, n)
	for i := 0; i < n; i++ {
		// Same seed for every replica: identical corpora, as a real replica
		// set bootstrapped from the same snapshot would hold.
		ts, err := selfServe(seed, maxInflight, logger)
		if err != nil {
			return Report{}, err
		}
		defer ts.Close()
		workerURLs[i] = ts.URL
	}
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Backends:       workerURLs,
		HealthInterval: 100 * time.Millisecond,
		Logger:         logger,
	})
	if err != nil {
		return Report{}, err
	}
	rt.Start()
	defer rt.Stop()
	routerTS := httptest.NewServer(rt.Handler())
	defer routerTS.Close()

	targets, err := discoverTargets(routerTS.URL)
	if err != nil {
		return Report{}, err
	}
	if len(targets) == 0 {
		return Report{}, fmt.Errorf("no qualifying targets behind the router")
	}
	logger.Printf("cluster: %d replicas behind the router, %d targets", n, len(targets))

	report := Report{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Generated:  time.Now().UTC().Format(time.RFC3339),
		SelfServe:  true,
		Duration:   duration.String(),
		WriteRatio: writeRatio,
		ZipfS:      zipfS,
		Targets:    len(targets),
		Cluster:    n,
	}
	wc, err := probeWarmCold(routerTS.URL, targets, m)
	if err != nil {
		return Report{}, err
	}
	report.WarmCold = wc
	logger.Printf("warm/cold probe: %d targets, cold p50 %.2fms, warm p50 %.0fµs (%.0fx), edge hit ratio %.2f",
		wc.Probes, wc.ColdP50MS, wc.WarmP50US, wc.SpeedupP50, wc.HitRatio)

	for _, rate := range rates {
		run, err := runStage([]string{routerTS.URL}, targets, rate, duration, writeRatio, zipfS, seed, m, "router")
		if err != nil {
			return Report{}, err
		}
		logStage(logger, run)
		report.Runs = append(report.Runs, run)
	}
	for _, rate := range rates {
		run, err := runStage(workerURLs, targets, rate, duration, writeRatio, zipfS, seed, m, "direct")
		if err != nil {
			return Report{}, err
		}
		logStage(logger, run)
		report.Runs = append(report.Runs, run)
	}
	return report, nil
}

// probeWarmCold measures the edge cache per request over a spread of
// targets: one cold select (proxied through to a full worker solve), then
// the identical select again (replayed from the edge).
func probeWarmCold(base string, targets []target, m int) (*WarmCold, error) {
	probes := len(targets)
	if probes > 40 {
		probes = 40
	}
	client := &http.Client{Timeout: 30 * time.Second}
	before, err := scrapeMetrics(base)
	if err != nil {
		return nil, err
	}
	var coldMS, warmUS []float64
	for i := 0; i < probes; i++ {
		tg := targets[i]
		t0 := time.Now()
		status, err := fireSelect(client, base, tg, m)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("cold probe %s/%s: status %d err %v", tg.category, tg.item, status, err)
		}
		coldMS = append(coldMS, float64(time.Since(t0).Microseconds())/1000)
		t0 = time.Now()
		status, err = fireSelect(client, base, tg, m)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("warm probe %s/%s: status %d err %v", tg.category, tg.item, status, err)
		}
		warmUS = append(warmUS, float64(time.Since(t0).Microseconds()))
	}
	after, err := scrapeMetrics(base)
	if err != nil {
		return nil, err
	}
	wc := &WarmCold{
		Probes:    probes,
		ColdP50MS: percentile(coldMS, 0.50),
		ColdP99MS: percentile(coldMS, 0.99),
		WarmP50US: percentile(warmUS, 0.50),
		WarmP99US: percentile(warmUS, 0.99),
	}
	if wc.WarmP50US > 0 {
		wc.SpeedupP50 = wc.ColdP50MS * 1000 / wc.WarmP50US
	}
	hits := after.delta(before, `comparesets_cache_hits_total{cache="router_edge"}`)
	misses := after.delta(before, `comparesets_cache_misses_total{cache="router_edge"}`)
	if hits+misses > 0 {
		wc.HitRatio = float64(hits) / float64(hits+misses)
	}
	return wc, nil
}

// writeReportFile marshals the report with a trailing newline.
func writeReportFile(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// selfServe synthesizes the default corpora and serves the full service
// handler over loopback.
func selfServe(seed int64, maxInflight int, logger *log.Logger) (*httptest.Server, error) {
	corpora := map[string]*model.Corpus{}
	for _, cfg := range datagen.DefaultConfigs(seed) {
		c, err := datagen.Generate(cfg)
		if err != nil {
			return nil, err
		}
		corpora[c.Category] = c
	}
	srv := service.NewWithOptions(corpora, logger, service.Options{MaxInflight: maxInflight})
	return httptest.NewServer(srv.Handler()), nil
}

// discoverTargets lists every qualifying target of every loaded category.
func discoverTargets(base string) ([]target, error) {
	var cats []struct {
		Name string `json:"name"`
	}
	if err := getJSON(base+"/api/v1/categories", &cats); err != nil {
		return nil, fmt.Errorf("listing categories: %w", err)
	}
	var out []target
	for _, c := range cats {
		var ids []string
		if err := getJSON(base+"/api/v1/targets?category="+c.Name, &ids); err != nil {
			return nil, fmt.Errorf("listing %s targets: %w", c.Name, err)
		}
		for _, id := range ids {
			out = append(out, target{category: c.Name, item: id})
		}
	}
	return out, nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// stageStats aggregates request outcomes across the stage's goroutines.
type stageStats struct {
	mu        sync.Mutex
	latencies []float64 // ms, successful requests only
	ok        int
	shed      int
	errors    int
	writes    int
	perTarget map[string]*TargetStats
}

// record books one outcome against the totals and its -addr target.
func (st *stageStats) record(base string, status int, err error, isWrite bool, elapsedMS float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ts := st.perTarget[base]
	if ts == nil {
		ts = &TargetStats{Addr: base}
		st.perTarget[base] = ts
	}
	ts.Sent++
	if isWrite {
		st.writes++
	}
	switch {
	case err != nil:
		st.errors++
		ts.Errors++
	case status == http.StatusServiceUnavailable:
		st.shed++
		ts.Shed++
	case status == http.StatusOK:
		st.ok++
		ts.OK++
		st.latencies = append(st.latencies, elapsedMS)
	default:
		st.errors++
		ts.Errors++
	}
}

// runStage fires duration's worth of requests at the given open-loop rate,
// round-robin across the bases, and differences the summed /metrics of
// every base around the stage. mode tags cluster-comparison stages ("router"
// / "direct"); it is folded into write IDs so router-fanned-out appends and
// direct appends of the same (seed, rate) never collide on a review ID.
func runStage(bases []string, targets []target, rate float64, duration time.Duration, writeRatio, zipfS float64, seed int64, m int, mode string) (RateRun, error) {
	before, err := scrapeAll(bases)
	if err != nil {
		return RateRun{}, err
	}
	rng := rand.New(rand.NewSource(seed + int64(rate)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(targets)-1))
	modeTag := ""
	if mode != "" {
		modeTag = mode + "-"
	}

	var (
		st    = stageStats{perTarget: map[string]*TargetStats{}}
		wg    sync.WaitGroup
		start = time.Now()
		n     = int(rate * duration.Seconds())
		gap   = time.Duration(float64(time.Second) / rate)
	)
	client := &http.Client{Timeout: 30 * time.Second}
	for i := 0; i < n; i++ {
		// The draws happen on the schedule goroutine so the rng is used
		// single-threaded; the launch time is fixed by the schedule alone.
		tg := targets[zipf.Uint64()]
		base := bases[i%len(bases)]
		isWrite := rng.Float64() < writeRatio
		// The mode and rate are part of the ID so stages never collide on a
		// review.
		writeID := fmt.Sprintf("loadgen-%s%d-%.0f-%d", modeTag, seed, rate, i)
		time.Sleep(time.Until(start.Add(time.Duration(i) * gap)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			var status int
			var err error
			if isWrite {
				status, err = fireAppend(client, base, tg, writeID)
			} else {
				status, err = fireSelect(client, base, tg, m)
			}
			elapsed := float64(time.Since(t0).Microseconds()) / 1000
			st.record(base, status, err, isWrite, elapsed)
		}()
	}
	wg.Wait()
	after, err := scrapeAll(bases)
	if err != nil {
		return RateRun{}, err
	}

	run := RateRun{
		Mode: mode,
		Rate: rate, Sent: n, OK: st.ok, Shed: st.shed, Errors: st.errors, Writes: st.writes,
		P50MS: percentile(st.latencies, 0.50),
		P90MS: percentile(st.latencies, 0.90),
		P99MS: percentile(st.latencies, 0.99),
		MaxMS: percentile(st.latencies, 1),
	}
	if n > 0 {
		run.ShedRate = float64(st.shed) / float64(n)
		run.Availability = float64(st.ok) / float64(n)
	}
	if len(bases) > 1 {
		for _, base := range bases {
			ts := st.perTarget[base]
			if ts == nil {
				ts = &TargetStats{Addr: base}
			}
			if ts.Sent > 0 {
				ts.Availability = float64(ts.OK) / float64(ts.Sent)
			}
			run.PerTarget = append(run.PerTarget, *ts)
		}
	}
	hits := after.delta(before, `comparesets_cache_hits_total{cache="servecache"}`)
	misses := after.delta(before, `comparesets_cache_misses_total{cache="servecache"}`)
	run.CacheHits, run.CacheMiss = hits, misses
	if hits+misses > 0 {
		run.CacheRate = float64(hits) / float64(hits+misses)
	}
	run.EncodeByte = after.delta(before, "comparesets_encode_bytes_total")
	eh := after.delta(before, `comparesets_cache_hits_total{cache="router_edge"}`)
	em := after.delta(before, `comparesets_cache_misses_total{cache="router_edge"}`)
	run.EdgeHits, run.EdgeMiss = eh, em
	if eh+em > 0 {
		run.EdgeRate = float64(eh) / float64(eh+em)
	}
	return run, nil
}

func fireSelect(client *http.Client, base string, tg target, m int) (int, error) {
	body, err := json.Marshal(map[string]any{
		"category": tg.category, "target": tg.item,
		"m": m, "lambda": 1, "mu": 1,
	})
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(base+"/api/v1/select", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func fireAppend(client *http.Client, base string, tg target, reviewID string) (int, error) {
	body, err := json.Marshal(map[string]any{
		"reviews": []map[string]any{{
			"id": reviewID, "item_id": tg.item, "reviewer": "loadgen", "rating": 4,
			"text": "Generated load-test review praising the battery.",
			"mentions": []map[string]any{
				{"aspect": 0, "polarity": 0, "score": 0.8},
			},
		}},
	})
	if err != nil {
		return 0, err
	}
	url := fmt.Sprintf("%s/api/v1/corpora/%s/items/%s/reviews", base, tg.category, tg.item)
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// percentile is the nearest-rank percentile of the (unsorted) samples in ms.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(q*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// counters is one /metrics scrape: series name (with labels) → value.
type counters map[string]float64

// delta returns the counter's increase over an earlier scrape. Series whose
// name has no label set match exactly; a bare name additionally sums every
// labeled series of that family.
func (c counters) delta(before counters, series string) uint64 {
	sum := func(m counters) float64 {
		if v, ok := m[series]; ok {
			return v
		}
		var total float64
		for k, v := range m {
			if strings.HasPrefix(k, series+"{") {
				total += v
			}
		}
		return total
	}
	d := sum(c) - sum(before)
	if d < 0 {
		return 0
	}
	return uint64(d)
}

// scrapeAll sums the metric counters of every base — against a replica set
// the caches and stores are per-process, so the stage deltas are the
// cluster-wide totals.
func scrapeAll(bases []string) (counters, error) {
	total := counters{}
	for _, base := range bases {
		c, err := scrapeMetrics(base)
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			total[k] += v
		}
	}
	return total, nil
}

// scrapeMetrics parses the Prometheus text exposition at base/metrics.
func scrapeMetrics(base string) (counters, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (counters, error) {
	out := counters{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue // histograms' +Inf bucket labels etc. still parse; skip oddities
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// gate fails when any (mode, rate) stage present in both reports regressed
// its p99 by more than maxRegress, unless both p99s sit under floorMS
// (sub-floor latencies are noise-dominated on CI runners). When both reports
// carry a warm/cold probe it additionally gates the warm-hit p99 — the edge
// fast path itself — against warmFloorUS with the same regression budget.
func gate(baselinePath string, current Report, maxRegress, floorMS, warmFloorUS float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline: %w", err)
	}
	stageKey := func(r RateRun) string {
		return r.Mode + "|" + strconv.FormatFloat(r.Rate, 'g', -1, 64)
	}
	byStage := map[string]RateRun{}
	for _, r := range base.Runs {
		byStage[stageKey(r)] = r
	}
	for _, cur := range current.Runs {
		b, ok := byStage[stageKey(cur)]
		if !ok || b.P99MS <= 0 {
			continue
		}
		if cur.P99MS <= floorMS && b.P99MS <= floorMS {
			continue
		}
		if cur.P99MS > b.P99MS*(1+maxRegress) {
			return fmt.Errorf("p99 regression at %s %.0f req/s: %.2fms vs baseline %.2fms (>%.0f%%)",
				cur.Mode, cur.Rate, cur.P99MS, b.P99MS, 100*maxRegress)
		}
	}
	if base.WarmCold != nil && current.WarmCold != nil && base.WarmCold.WarmP99US > 0 {
		bw, cw := base.WarmCold.WarmP99US, current.WarmCold.WarmP99US
		if !(cw <= warmFloorUS && bw <= warmFloorUS) && cw > bw*(1+maxRegress) {
			return fmt.Errorf("warm-hit p99 regression: %.0fµs vs baseline %.0fµs (>%.0f%%)",
				cw, bw, 100*maxRegress)
		}
	}
	return nil
}
