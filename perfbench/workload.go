package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"time"
)

// target is one (category, item) a select can name.
type target struct {
	category string
	item     string
}

// opKind is what one scheduled request does.
type opKind int

const (
	opSelect opKind = iota
	opAppend
	opPatch
	opDelete
)

func (k opKind) String() string {
	return [...]string{"select", "append", "update", "remove"}[k]
}

// request is one scheduled operation. Selects carry their shape; writes
// carry the benchmark-owned review they touch and, for the update and
// remove steps, the index of the write they must follow.
type request struct {
	kind   opKind
	tg     target
	m      int
	lambda float64
	k      int
	method string
	// review is the benchmark-owned review ID of a write.
	review string
	// after is the schedule index of the previous step of this write's
	// cycle (-1 for selects and appends).
	after int
	// sample marks selects compared against a direct core call after the
	// timed window.
	sample bool
}

// key identifies what the request asks: two selects with equal keys must
// get equal answers while the corpus is unchanged, and every write has a
// key of its own.
func (r request) key() string {
	return fmt.Sprintf("%s|%s|%s|m=%d|l=%g|k=%d|%s|%s", r.kind, r.tg.category, r.tg.item, r.m, r.lambda, r.k, r.method, r.review)
}

// workloadSpec fixes one workload's traffic mix.
type workloadSpec struct {
	name string
	rate float64 // open-loop arrivals per second
}

// workloads are the traffic mixes; BENCHMARK.json records why each exists.
var workloads = []workloadSpec{{"hot_read", 400}, {"cold_select", 200}, {"write_mix", 200}}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

const (
	zipfS       = 1.2
	hotM        = 8
	warmColdM   = 2 // cold_select warms slabs and problems with a shape it never times
	coldMinM    = 3
	coldMaxM    = 10
	exactEvery  = 4  // every 4th cold select adds a k=3 exact shortlist
	writeEvery  = 10 // every 10th write_mix request is a write
	sampleEvery = 25 // every 25th read of hot_read/cold_select is compared against core
)

// coldLambdas widen cold_select's key space beyond targets×m when a run
// needs more distinct keys; each λ layer is used up before the next starts.
var coldLambdas = []float64{1, 0.5, 2, 0.25}

// buildSchedule generates the workload's request sequence from the seed.
// The corpora are fixed; only the requests depend on the seed.
func buildSchedule(spec workloadSpec, seed int64, seconds int, targets []target) ([]request, error) {
	n := int(spec.rate) * seconds
	rng := rand.New(rand.NewSource(seed))
	switch spec.name {
	case "hot_read", "write_mix":
		// Popularity is a property of the catalog, fixed with the corpora:
		// zipf rank r is the r-th target of one permutation. The seed draws
		// the request sequence from it.
		perm := rand.New(rand.NewSource(corpusSeed)).Perm(len(targets))
		var writeSlots []int
		for i := writeEvery - 1; spec.name == "write_mix" && i < n; i += writeEvery {
			writeSlots = append(writeSlots, i)
		}
		reads := zipfRanks(rng, n-len(writeSlots), len(targets))
		cycles := zipfRanks(rng, (len(writeSlots)+2)/3, len(targets))
		reqs := make([]request, 0, n)
		for i := 0; i < n; i++ {
			if j := sort.SearchInts(writeSlots, i); j < len(writeSlots) && writeSlots[j] == i {
				reqs = append(reqs, writeStep(seed, j, targets[perm[cycles[j/3]]], writeSlots))
				continue
			}
			reqs = append(reqs, request{kind: opSelect, tg: targets[perm[reads[0]]], m: hotM, lambda: 1, after: -1,
				sample: spec.name == "hot_read" && i%sampleEvery == 0})
			reads = reads[1:]
		}
		return reqs, nil
	case "cold_select":
		var keys []request
		for _, lambda := range coldLambdas {
			if len(keys) >= n {
				break
			}
			layer := make([]request, 0, len(targets)*(coldMaxM-coldMinM+1))
			for _, tg := range targets {
				for m := coldMinM; m <= coldMaxM; m++ {
					layer = append(layer, request{kind: opSelect, tg: tg, m: m, lambda: lambda, after: -1})
				}
			}
			rng.Shuffle(len(layer), func(a, b int) { layer[a], layer[b] = layer[b], layer[a] })
			keys = append(keys, layer...)
		}
		if len(keys) < n {
			return nil, fmt.Errorf("cold_select needs %d distinct keys, has %d: lower --seconds", n, len(keys))
		}
		reqs := keys[:n]
		for i := range reqs {
			if i%exactEvery == exactEvery-1 {
				reqs[i].k, reqs[i].method = 3, "exact"
			}
			reqs[i].sample = i%sampleEvery == 0
		}
		return reqs, nil
	}
	return nil, fmt.Errorf("unknown workload %q", spec.name)
}

// writeStep is the j-th write of write_mix: step j%3 of cycle j/3, which
// appends a benchmark-owned review to the cycle's item, then updates it,
// then removes it, so every completed cycle leaves the corpus size where it
// started. Each step follows the previous one.
func writeStep(seed int64, j int, tg target, writeSlots []int) request {
	r := request{kind: opAppend + opKind(j%3), tg: tg, review: fmt.Sprintf("perfbench-%d-%d", seed, j/3), after: -1}
	if j%3 > 0 {
		r.after = writeSlots[j-1]
	}
	return r
}

// zipfRanks returns n ranks in [0, k) drawn from zipf(zipfS) by stratified
// sampling: the i-th draw inverts the distribution at a random point of the
// i-th of n equal slices, and the draws are then shuffled. Each seed gives
// another sequence, but every sequence holds each rank as often as n allows,
// so runs do not differ by how often the hottest item happened to be drawn.
func zipfRanks(rng *rand.Rand, n, k int) []int {
	cdf := make([]float64, k)
	var sum float64
	for r := range cdf {
		sum += math.Pow(float64(r+1), -zipfS)
		cdf[r] = sum
	}
	out := make([]int, n)
	for i := range out {
		q := (float64(i) + rng.Float64()) / float64(n) * sum
		out[i] = min(sort.SearchFloat64s(cdf, q), k-1)
	}
	rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// selfTest checks the generator's contract: the same seed gives the same
// sequence, another seed another one, cold_select never repeats a key, and
// every write_mix cycle runs append → update → remove on one item.
func selfTest(spec workloadSpec, seed int64, seconds int, targets []target) error {
	a, err := buildSchedule(spec, seed, seconds, targets)
	if err != nil {
		return err
	}
	b, err := buildSchedule(spec, seed, seconds, targets)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("%s: seed %d gave two different request sequences", spec.name, seed)
	}
	c, err := buildSchedule(spec, seed+1, seconds, targets)
	if err != nil {
		return err
	}
	if reflect.DeepEqual(a, c) {
		return fmt.Errorf("%s: seeds %d and %d gave the same request sequence", spec.name, seed, seed+1)
	}
	if spec.name == "cold_select" {
		seen := map[string]bool{}
		for _, r := range a {
			if seen[r.key()] {
				return fmt.Errorf("cold_select repeats key %s", r.key())
			}
			seen[r.key()] = true
		}
	}
	for i, r := range a {
		if r.after < 0 {
			continue
		}
		p := a[r.after]
		if p.review != r.review || p.tg != r.tg || p.kind != r.kind-1 || r.after >= i {
			return fmt.Errorf("%s: write %d (%s %s) does not follow its cycle's previous step", spec.name, i, r.kind, r.review)
		}
	}
	return nil
}

// wire is a request encoded for the wire, built before the timed window so
// the senders only send.
type wire struct {
	method string
	path   string
	body   []byte
}

// encode renders the request as the HTTP call a storefront client makes.
func (r request) encode() (wire, error) {
	switch r.kind {
	case opSelect:
		req := map[string]any{"category": r.tg.category, "target": r.tg.item, "m": r.m, "lambda": r.lambda, "mu": 1}
		if r.k > 0 {
			req["k"], req["method"] = r.k, r.method
		}
		body, err := json.Marshal(req)
		return wire{http.MethodPost, "/api/v1/select", body}, err
	case opAppend:
		body, err := json.Marshal(map[string]any{"reviews": []any{r.review0()}})
		return wire{http.MethodPost, r.reviewsPath(), body}, err
	case opPatch:
		rv := r.review0()
		rv["rating"], rv["text"] = 2, "Benchmark review, revised: the battery faded within a week."
		rv["mentions"] = []map[string]any{{"aspect": 0, "polarity": 1, "score": -0.6}}
		body, err := json.Marshal(rv)
		return wire{http.MethodPatch, r.reviewsPath() + "/" + r.review, body}, err
	default:
		return wire{http.MethodDelete, r.reviewsPath() + "/" + r.review, nil}, nil
	}
}

func (r request) reviewsPath() string {
	return fmt.Sprintf("/api/v1/corpora/%s/items/%s/reviews", r.tg.category, r.tg.item)
}

func (r request) review0() map[string]any {
	return map[string]any{
		"id": r.review, "item_id": r.tg.item, "reviewer": "perfbench", "rating": 4,
		"text":     "Benchmark review praising the battery and the screen.",
		"mentions": []map[string]any{{"aspect": 0, "polarity": 0, "score": 0.8}},
	}
}

// dueTimes spaces n arrivals evenly at the rate from start.
func dueTimes(start time.Time, n int, rate float64) []time.Time {
	out := make([]time.Time, n)
	for i := range out {
		out[i] = start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
	}
	return out
}
