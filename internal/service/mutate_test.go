package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"comparesets/internal/datagen"
	"comparesets/internal/dataset"
	"comparesets/internal/lexicon"
	"comparesets/internal/model"
	"comparesets/internal/selectreq"
)

// doJSON issues one request with a JSON body (nil payload sends no body) and
// returns the response plus its fully-read body.
func doJSON(t *testing.T, method, url string, payload any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if payload != nil {
		buf, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func decodeReceipt(t *testing.T, body []byte) *MutationReceipt {
	t.Helper()
	var rc MutationReceipt
	if err := json.Unmarshal(body, &rc); err != nil {
		t.Fatalf("unmarshalling receipt %s: %v", body, err)
	}
	return &rc
}

func decodeAPIError(t *testing.T, body []byte) ErrorBody {
	t.Helper()
	var env ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("unmarshalling error %s: %v", body, err)
	}
	return env.Error
}

// metricValue scrapes /metrics and returns the value of the series line
// starting with prefix (0 when the series does not exist yet). The registry
// is process-global, so tests assert deltas, not absolute values.
func metricValue(t *testing.T, ts *httptest.Server, prefix string) float64 {
	t.Helper()
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

func TestMutationLifecycleReceipts(t *testing.T) {
	s, ts := testServer(t)
	s.mu.RLock()
	c := s.corpora["Cellphone"]
	item := dataset.TargetIDs(c)[0]
	before := len(c.Items[item].Reviews)
	s.mu.RUnlock()

	series := []string{
		`comparesets_mutations_total{kind="append"}`,
		`comparesets_mutations_total{kind="update"}`,
		`comparesets_mutations_total{kind="remove"}`,
		`comparesets_invalidations_total{scope="item"}`,
		`comparesets_pipeline_stage_duration_seconds_count{stage="mutate_apply"}`,
	}
	baseline := make([]float64, len(series))
	for i, sr := range series {
		baseline[i] = metricValue(t, ts, sr)
	}

	base := ts.URL + "/api/v1/corpora/Cellphone/items/" + item + "/reviews"

	// Append one review: generation 1, one fresh column set per scheme.
	resp, body := doJSON(t, http.MethodPost, base, AppendReviewsBody{Reviews: []*model.Review{
		{ID: "mut-r1", Rating: 5, Mentions: []model.Mention{{Aspect: 0, Polarity: model.Positive, Score: 1}}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d body %s", resp.StatusCode, body)
	}
	rc := decodeReceipt(t, body)
	if rc.Kind != "append" || rc.Category != "Cellphone" || rc.Item != item {
		t.Errorf("receipt = %+v", rc)
	}
	if len(rc.Reviews) != 1 || rc.Reviews[0] != "mut-r1" {
		t.Errorf("reviews = %v", rc.Reviews)
	}
	if rc.Generation != 1 {
		t.Errorf("generation = %d (want 1)", rc.Generation)
	}
	if rc.Invalidation.Scope != "item" {
		t.Errorf("scope = %q", rc.Invalidation.Scope)
	}
	if len(rc.AffectedItems) != 1 || rc.AffectedItems[0] != item {
		t.Errorf("affected = %v", rc.AffectedItems)
	}
	s.mu.RLock()
	after := len(s.corpora["Cellphone"].Items[item].Reviews)
	s.mu.RUnlock()
	if after != before+1 {
		t.Errorf("review count %d -> %d (want +1)", before, after)
	}

	// Update the appended review: generation 2, same review count.
	resp, body = doJSON(t, http.MethodPatch, base+"/mut-r1", model.Review{
		Rating: 1, Mentions: []model.Mention{{Aspect: 1, Polarity: model.Negative, Score: 1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d body %s", resp.StatusCode, body)
	}
	rc = decodeReceipt(t, body)
	if rc.Kind != "update" || rc.Generation != 2 {
		t.Errorf("update receipt = %+v", rc)
	}

	// Remove it: generation 3, count back to the original.
	resp, body = doJSON(t, http.MethodDelete, base+"/mut-r1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: status %d body %s", resp.StatusCode, body)
	}
	rc = decodeReceipt(t, body)
	if rc.Kind != "remove" || rc.Generation != 3 {
		t.Errorf("remove receipt = %+v", rc)
	}
	s.mu.RLock()
	final := len(s.corpora["Cellphone"].Items[item].Reviews)
	s.mu.RUnlock()
	if final != before {
		t.Errorf("review count after remove = %d (want %d)", final, before)
	}

	// Mutation metrics: one increment per kind, three item-scope
	// invalidations, three mutate_apply stage observations.
	for i, want := range []float64{1, 1, 1, 3, 3} {
		if got := metricValue(t, ts, series[i]) - baseline[i]; got != want {
			t.Errorf("%s delta = %g (want %g)", series[i], got, want)
		}
	}
}

func TestMutationHTTPErrors(t *testing.T) {
	s, ts := testServer(t)
	s.mu.RLock()
	item := dataset.TargetIDs(s.corpora["Cellphone"])[0]
	existing := s.corpora["Cellphone"].Items[item].Reviews[0].ID
	s.mu.RUnlock()
	base := ts.URL + "/api/v1/corpora/Cellphone/items/" + item + "/reviews"

	cases := []struct {
		name   string
		method string
		url    string
		body   any
		status int
		field  string
	}{
		{"unknown category", http.MethodPost, ts.URL + "/api/v1/corpora/Nope/items/x/reviews",
			AppendReviewsBody{Reviews: []*model.Review{{ID: "r", Rating: 3}}}, http.StatusNotFound, ""},
		{"unknown item", http.MethodPost, ts.URL + "/api/v1/corpora/Cellphone/items/nope/reviews",
			AppendReviewsBody{Reviews: []*model.Review{{ID: "r", Rating: 3}}}, http.StatusNotFound, ""},
		{"empty reviews", http.MethodPost, base, AppendReviewsBody{}, http.StatusUnprocessableEntity, "reviews"},
		{"duplicate id", http.MethodPost, base,
			AppendReviewsBody{Reviews: []*model.Review{{ID: existing, Rating: 3}}}, http.StatusUnprocessableEntity, "id"},
		{"missing id", http.MethodPost, base,
			AppendReviewsBody{Reviews: []*model.Review{{Rating: 3}}}, http.StatusUnprocessableEntity, "id"},
		{"bad aspect", http.MethodPost, base,
			AppendReviewsBody{Reviews: []*model.Review{{ID: "bad", Rating: 3,
				Mentions: []model.Mention{{Aspect: 999, Polarity: model.Positive, Score: 1}}}}},
			http.StatusUnprocessableEntity, "mentions"},
		{"item mismatch", http.MethodPost, base,
			AppendReviewsBody{Reviews: []*model.Review{{ID: "bad", ItemID: "other", Rating: 3}}},
			http.StatusUnprocessableEntity, "item_id"},
		{"update id mismatch", http.MethodPatch, base + "/" + existing,
			model.Review{ID: "different", Rating: 3}, http.StatusUnprocessableEntity, "id"},
		{"update unknown review", http.MethodPatch, base + "/nope",
			model.Review{Rating: 3}, http.StatusNotFound, ""},
		{"remove unknown review", http.MethodDelete, base + "/nope", nil, http.StatusNotFound, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doJSON(t, tc.method, tc.url, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (want %d), body %s", resp.StatusCode, tc.status, body)
			}
			eb := decodeAPIError(t, body)
			if eb.Field != tc.field {
				t.Errorf("field = %q (want %q), body %s", eb.Field, tc.field, body)
			}
			if tc.status == http.StatusUnprocessableEntity && eb.Code != CodeUnprocessable {
				t.Errorf("code = %q", eb.Code)
			}
		})
	}

	// Failed mutations must not bump generations or counters.
	s.mu.RLock()
	gens := s.gens["Cellphone"]
	s.mu.RUnlock()
	if len(gens) != 0 {
		t.Errorf("generations bumped by failed mutations: %v", gens)
	}
}

// TestWarmHitPreservation is the point of per-item generations: mutating one
// item must not evict cached selections whose instances don't contain it.
func TestWarmHitPreservation(t *testing.T) {
	s, ts := testServer(t)
	s.mu.RLock()
	c := s.corpora["Cellphone"]
	targets := dataset.TargetIDs(c)
	s.mu.RUnlock()

	// Pick a target and find an item outside its instance to mutate.
	target := targets[0]
	inst, err := c.NewInstance(target, 0)
	if err != nil {
		t.Fatal(err)
	}
	members := map[string]bool{}
	for _, it := range inst.Items {
		members[it.ID] = true
	}
	outsider := ""
	for id := range c.Items {
		if !members[id] {
			outsider = id
			break
		}
	}
	if outsider == "" {
		t.Skip("every item is in the target's instance")
	}

	req := SelectRequest{Category: "Cellphone", Target: target, M: 3, Lambda: 1, Mu: 0.1}
	if resp, body := post(t, ts.URL+"/api/v1/select", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("select: status %d body %s", resp.StatusCode, body)
	}
	canonical := req
	selectreq.ApplyDefaults(&canonical) // as the handler does before keying
	key := selectreq.Key(&canonical)

	s.mu.RLock()
	base := s.epochs["Cellphone"]
	s.mu.RUnlock()
	if _, hit := s.cache.Get(key, base); !hit {
		t.Fatalf("no cached entry under the base epoch after select")
	}

	// Mutate the outsider: the target's instance has no touched member, so
	// instanceEpoch stays the bare base token and the entry stays reachable.
	resp, body := doJSON(t, http.MethodPost,
		ts.URL+"/api/v1/corpora/Cellphone/items/"+outsider+"/reviews",
		AppendReviewsBody{Reviews: []*model.Review{{ID: "out-r1", Rating: 4}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate outsider: status %d body %s", resp.StatusCode, body)
	}
	s.mu.RLock()
	epoch := instanceEpoch(base, s.gens["Cellphone"], inst)
	s.mu.RUnlock()
	if epoch != base {
		t.Fatalf("instance epoch changed by unrelated mutation: %q -> %q", base, epoch)
	}
	if _, hit := s.cache.Get(key, epoch); !hit {
		t.Errorf("cached selection evicted by unrelated mutation")
	}

	// Mutate the target itself: the instance re-keys, so the handler now
	// looks up a different key and recomputes against the new corpus.
	resp, body = doJSON(t, http.MethodPost,
		ts.URL+"/api/v1/corpora/Cellphone/items/"+target+"/reviews",
		AppendReviewsBody{Reviews: []*model.Review{{ID: "tgt-r1", Rating: 2}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate target: status %d body %s", resp.StatusCode, body)
	}
	s.mu.RLock()
	c2 := s.corpora["Cellphone"]
	inst2, err := c2.NewInstance(target, 0)
	if err != nil {
		s.mu.RUnlock()
		t.Fatal(err)
	}
	epoch2 := instanceEpoch(base, s.gens["Cellphone"], inst2)
	s.mu.RUnlock()
	if epoch2 == base {
		t.Fatalf("instance epoch unchanged after mutating a member")
	}
	if _, hit := s.cache.Get(key, epoch2); hit {
		t.Fatalf("entry already tagged with the fresh epoch before re-select")
	}
	if resp, body := post(t, ts.URL+"/api/v1/select", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-select: status %d body %s", resp.StatusCode, body)
	}
	if _, hit := s.cache.Get(key, epoch2); !hit {
		t.Errorf("re-select did not cache under the new epoch")
	}
}

// The receipt's problems_dropped counts the regression templates the
// mutated item's replaced feature blocks held: after a warm CompaReSetS+
// select over the item it is exactly what the store lost, and an item no
// select touched held none.
func TestReceiptCountsDroppedTemplates(t *testing.T) {
	s, ts := testServer(t)
	s.mu.RLock()
	c, fs := s.corpora["Cellphone"], s.feats["Cellphone"]
	s.mu.RUnlock()
	target := dataset.TargetIDs(c)[0]
	inst, err := c.NewInstance(target, 0)
	if err != nil {
		t.Fatal(err)
	}
	members := map[string]bool{}
	for _, it := range inst.Items {
		members[it.ID] = true
	}
	outsider := ""
	for _, id := range c.ItemIDs() {
		if !members[id] {
			outsider = id
			break
		}
	}
	if outsider == "" {
		t.Fatal("every item is in the target's instance")
	}

	req := SelectRequest{Category: "Cellphone", Target: target, M: 3, Lambda: 1, Mu: 0.1, Algorithm: "CompaReSetS+"}
	if resp, body := post(t, ts.URL+"/api/v1/select", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("select: status %d body %s", resp.StatusCode, body)
	}
	appendOne := func(item, id string) int {
		t.Helper()
		resp, body := doJSON(t, http.MethodPost, ts.URL+"/api/v1/corpora/Cellphone/items/"+item+"/reviews",
			AppendReviewsBody{Reviews: []*model.Review{{ID: id, Rating: 4}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append to %s: status %d body %s", item, resp.StatusCode, body)
		}
		return decodeReceipt(t, body).Invalidation.ProblemsDropped
	}

	before, _ := fs.Templates()
	dropped := appendOne(target, "drop-r1")
	after, _ := fs.Templates()
	if dropped <= 0 || dropped != before-after {
		t.Errorf("target: problems_dropped = %d, store went %d -> %d templates", dropped, before, after)
	}
	if dropped := appendOne(outsider, "drop-r2"); dropped != 0 {
		t.Errorf("untouched item: problems_dropped = %d, want 0", dropped)
	}
}

// stripTiming zeroes the wall-clock field so responses can be compared
// byte-for-byte: everything else in a SelectResponse is deterministic.
func stripTiming(t *testing.T, body []byte) []byte {
	t.Helper()
	var resp SelectResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshalling %s: %v", body, err)
	}
	resp.ElapsedMS = 0
	out, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMutationRebuildParity is the incremental-path certificate: a server
// that absorbed a seeded sequence of HTTP mutations must serve selections
// byte-identical (modulo timing) to a server built fresh from the final
// corpus — i.e. the delta path through featstore (columns and templates)
// and cache keying loses nothing relative to a whole-epoch rebuild. The live server
// serves every compared select once before the writes, so its feature
// columns, regression templates and response cache are warm when the
// mutations land and must be invalidated exactly.
func TestMutationRebuildParity(t *testing.T) {
	cfg := datagen.Config{
		Category: lexicon.Cellphone, Products: 24, Reviewers: 40,
		MeanReviews: 6, MeanAlsoBought: 4, Seed: 11,
	}
	gen := func() *model.Corpus {
		c, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	live := New(map[string]*model.Corpus{"Cellphone": gen()}, nil)
	ts := httptest.NewServer(live.Handler())
	defer ts.Close()

	// Shadow applies the same deltas at the model layer; the rebuilt server
	// is then constructed from the shadow's final state in one shot.
	shadow := gen()
	ids := dataset.TargetIDs(shadow)
	targets := ids[:6]
	selectReq := func(target string) SelectRequest {
		return SelectRequest{Category: "Cellphone", Target: target, M: 3, Lambda: 1, Mu: 0.1, K: 3, Method: "greedy"}
	}
	for _, target := range targets {
		if resp, body := post(t, ts.URL+"/api/v1/select", selectReq(target)); resp.StatusCode != http.StatusOK {
			t.Fatalf("pre-write select %s: status %d body %s", target, resp.StatusCode, body)
		}
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		item := ids[rng.Intn(len(ids))]
		base := ts.URL + "/api/v1/corpora/Cellphone/items/" + item + "/reviews"
		switch rng.Intn(3) {
		case 0:
			r := &model.Review{ID: fmt.Sprintf("par-%d", i), Rating: 1 + rng.Intn(5),
				Mentions: []model.Mention{{Aspect: rng.Intn(shadow.Aspects.Len()), Polarity: model.Positive, Score: 1}}}
			cp := *r
			if resp, body := doJSON(t, http.MethodPost, base, AppendReviewsBody{Reviews: []*model.Review{r}}); resp.StatusCode != http.StatusOK {
				t.Fatalf("append %d: status %d body %s", i, resp.StatusCode, body)
			}
			if _, err := shadow.AppendReviews(item, &cp); err != nil {
				t.Fatal(err)
			}
		case 1:
			old := shadow.Items[item].Reviews[0]
			r := &model.Review{ID: old.ID, Rating: 1 + rng.Intn(5),
				Mentions: []model.Mention{{Aspect: rng.Intn(shadow.Aspects.Len()), Polarity: model.Negative, Score: 1}}}
			cp := *r
			if resp, body := doJSON(t, http.MethodPatch, base+"/"+old.ID, r); resp.StatusCode != http.StatusOK {
				t.Fatalf("update %d: status %d body %s", i, resp.StatusCode, body)
			}
			if _, err := shadow.UpdateReview(item, &cp); err != nil {
				t.Fatal(err)
			}
		default:
			rs := shadow.Items[item].Reviews
			if len(rs) < 2 {
				continue // keep every item non-empty
			}
			id := rs[len(rs)-1].ID
			if resp, body := doJSON(t, http.MethodDelete, base+"/"+id, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("remove %d: status %d body %s", i, resp.StatusCode, body)
			}
			if _, err := shadow.RemoveReview(item, id); err != nil {
				t.Fatal(err)
			}
		}
	}

	rebuilt := New(map[string]*model.Corpus{"Cellphone": shadow}, nil)
	ts2 := httptest.NewServer(rebuilt.Handler())
	defer ts2.Close()

	for _, target := range targets {
		req := selectReq(target)
		// Two rounds: the second compares the live server's warm caches
		// against the rebuilt server's.
		for round := 0; round < 2; round++ {
			r1, b1 := post(t, ts.URL+"/api/v1/select", req)
			r2, b2 := post(t, ts2.URL+"/api/v1/select", req)
			if r1.StatusCode != http.StatusOK || r2.StatusCode != http.StatusOK {
				t.Fatalf("target %s: statuses %d/%d bodies %s / %s", target, r1.StatusCode, r2.StatusCode, b1, b2)
			}
			got, want := stripTiming(t, b1), stripTiming(t, b2)
			if !bytes.Equal(got, want) {
				t.Errorf("target %s round %d: incremental response diverges from rebuild\n inc: %s\n reb: %s", target, round, got, want)
			}
		}
	}
}

// TestMutateWhileSelect hammers the mutation endpoints concurrently with
// selects; under -race this certifies the copy-on-write swap, the featstore
// atomic corpus pointer, and the cache and flight locking.
func TestMutateWhileSelect(t *testing.T) {
	s, ts := testServer(t)
	s.mu.RLock()
	targets := dataset.TargetIDs(s.corpora["Cellphone"])
	aspects := s.corpora["Cellphone"].Aspects.Len()
	s.mu.RUnlock()

	const writers, readers, iters = 2, 4, 15
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				item := targets[(w*iters+i)%len(targets)]
				id := fmt.Sprintf("race-w%d-%d", w, i)
				url := ts.URL + "/api/v1/corpora/Cellphone/items/" + item + "/reviews"
				resp, body := doJSON(t, http.MethodPost, url, AppendReviewsBody{Reviews: []*model.Review{
					{ID: id, Rating: 1 + i%5, Mentions: []model.Mention{{Aspect: i % aspects, Polarity: model.Positive, Score: 1}}},
				}})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d append: status %d body %s", w, resp.StatusCode, body)
					return
				}
				resp, body = doJSON(t, http.MethodDelete, url+"/"+id, nil)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("writer %d remove: status %d body %s", w, resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				req := SelectRequest{
					Category: "Cellphone", Target: targets[(r+i)%len(targets)],
					M: 3, Lambda: 1, Mu: 0.1,
				}
				resp, body := post(t, ts.URL+"/api/v1/select", req)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader %d select: status %d body %s", r, resp.StatusCode, body)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
