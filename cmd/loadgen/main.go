// Command loadgen drives open-loop load at a running server or router and
// gates the run on client-observed availability. It is the load client of
// the cross-process chaos drill (scripts/chaos_cluster.sh); the serving
// benchmark is perfbench, and cmd/benchpair gates it.
//
// Item popularity is zipfian — a handful of hot targets absorb most of the
// traffic — and arrival is open-loop: requests launch on a fixed schedule
// derived from the target rate whether or not earlier requests have
// returned, so a stalled or killed backend accumulates in-flight work
// instead of slowing the client down. A -write-ratio fraction of requests
// are review appends, which keeps the mutation path under the drill too.
//
// -min-availability fails the run (exit 1) when any rate stage answers
// fewer than that fraction of its requests with 200.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// zipfS is the zipf exponent of target popularity.
	zipfS = 1.2
	// seed drives the target draws and the write IDs.
	seed = 1
	// selectM is the number of reviews each select asks for per item.
	selectM = 3
)

// target is one (category, item) the generator can reference.
type target struct {
	category string
	item     string
}

// RateRun is the outcome of one rate stage.
type RateRun struct {
	Rate   float64
	Sent   int
	OK     int
	Shed   int
	Errors int
	Writes int
	// Availability is the fraction of requests answered 200 — the number
	// the drill gates on.
	Availability float64
	P50MS        float64
	P99MS        float64
}

func main() {
	var (
		addr       = flag.String("addr", "", "server or router base URL")
		rates      = flag.String("rates", "50,100,200", "comma-separated open-loop arrival rates in req/s")
		duration   = flag.Duration("duration", 3*time.Second, "wall-clock length of each rate stage")
		writeRatio = flag.Float64("write-ratio", 0, "fraction of requests that append a review instead of selecting")
		minAvail   = flag.Float64("min-availability", 0, "fail unless every rate's availability (200s/sent) reaches this fraction (0 = no gate)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "loadgen: ", log.LstdFlags)

	base := strings.TrimRight(strings.TrimSpace(*addr), "/")
	if base == "" {
		logger.Fatal("-addr is required")
	}
	rateList, err := parseRates(*rates)
	if err != nil {
		logger.Fatal(err)
	}
	targets, err := discoverTargets(base)
	if err != nil {
		logger.Fatal(err)
	}
	if len(targets) == 0 {
		logger.Fatal("no qualifying targets on the server")
	}
	logger.Printf("%d targets across the loaded corpora", len(targets))

	failed := false
	for _, rate := range rateList {
		run := runStage(base, targets, rate, *duration, *writeRatio)
		logger.Printf("%.0f req/s: sent %d ok %d shed %d errors %d avail %.2f%% p50 %.2fms p99 %.2fms",
			run.Rate, run.Sent, run.OK, run.Shed, run.Errors, 100*run.Availability, run.P50MS, run.P99MS)
		if run.Availability < *minAvail {
			logger.Printf("availability gate: %.4f at %.0f req/s, need >= %.4f", run.Availability, run.Rate, *minAvail)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	if *minAvail > 0 {
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
}

// record books one request outcome.
func (st *stageStats) record(status int, err error, elapsedMS float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case err != nil:
		st.errors++
	case status == http.StatusServiceUnavailable:
		st.shed++
	case status == http.StatusOK:
		st.ok++
		st.latencies = append(st.latencies, elapsedMS)
	default:
		st.errors++
	}
}

// runStage fires duration's worth of requests at base at the given
// open-loop rate and waits for every one of them to return.
func runStage(base string, targets []target, rate float64, duration time.Duration, writeRatio float64) RateRun {
	rng := rand.New(rand.NewSource(seed + int64(rate)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(targets)-1))

	var (
		st     stageStats
		wg     sync.WaitGroup
		writes int
		start  = time.Now()
		n      = int(rate * duration.Seconds())
		gap    = time.Duration(float64(time.Second) / rate)
	)
	client := &http.Client{Timeout: 30 * time.Second}
	for i := 0; i < n; i++ {
		// The draws happen on the schedule goroutine so the rng is used
		// single-threaded; the launch time is fixed by the schedule alone.
		tg := targets[zipf.Uint64()]
		isWrite := rng.Float64() < writeRatio
		if isWrite {
			writes++
		}
		// The rate is part of the ID so stages never collide on a review.
		writeID := fmt.Sprintf("loadgen-%d-%.0f-%d", seed, rate, i)
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
				status, err = fireSelect(client, base, tg)
			}
			st.record(status, err, float64(time.Since(t0).Microseconds())/1000)
		}()
	}
	wg.Wait()

	run := RateRun{
		Rate: rate, Sent: n, OK: st.ok, Shed: st.shed, Errors: st.errors, Writes: writes,
		P50MS: percentile(st.latencies, 0.50),
		P99MS: percentile(st.latencies, 0.99),
	}
	if n > 0 {
		run.Availability = float64(st.ok) / float64(n)
	}
	return run
}

func fireSelect(client *http.Client, base string, tg target) (int, error) {
	body, err := json.Marshal(map[string]any{
		"category": tg.category, "target": tg.item,
		"m": selectM, "lambda": 1, "mu": 1,
	})
	if err != nil {
		return 0, err
	}
	return post(client, base+"/api/v1/select", body)
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
	return post(client, fmt.Sprintf("%s/api/v1/corpora/%s/items/%s/reviews", base, tg.category, tg.item), body)
}

// post sends a JSON body and drains the response, returning its status.
func post(client *http.Client, url string, body []byte) (int, error) {
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
