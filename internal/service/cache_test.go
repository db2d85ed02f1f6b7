package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"comparesets/internal/datagen"
	"comparesets/internal/dataset"
	"comparesets/internal/lexicon"
	"comparesets/internal/model"
	"comparesets/internal/obs"
)

func cellphoneCorpus(tb testing.TB, seed int64) *model.Corpus {
	tb.Helper()
	c, err := datagen.Generate(datagen.Config{
		Category: lexicon.Cellphone, Products: 30, Reviewers: 60,
		MeanReviews: 8, MeanAlsoBought: 5, Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// postRecorded drives the handler directly (no network) and returns the
// recorded response.
func postRecorded(tb testing.TB, h http.Handler, url string, payload any) *httptest.ResponseRecorder {
	tb.Helper()
	buf, err := json.Marshal(payload)
	if err != nil {
		tb.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func hotRequest(tb testing.TB, s *Server) SelectRequest {
	tb.Helper()
	s.mu.RLock()
	targets := dataset.TargetIDs(s.corpora["Cellphone"])
	s.mu.RUnlock()
	return SelectRequest{
		Category: "Cellphone", Target: targets[0],
		M: 3, Lambda: 1, Mu: 0.1, K: 3, Method: "greedy",
	}
}

func TestWarmHitReturnsIdenticalBytes(t *testing.T) {
	c := cellphoneCorpus(t, 3)
	s := New(map[string]*model.Corpus{"Cellphone": c}, nil)
	h := s.Handler()
	req := hotRequest(t, s)

	hits := obs.NewCacheMetrics(s.reg, "servecache").Hits
	before := hits.Value()
	cold := postRecorded(t, h, "/api/v1/select", req)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: status %d body %s", cold.Code, cold.Body.String())
	}
	warm := postRecorded(t, h, "/api/v1/select", req)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm: status %d", warm.Code)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Error("warm response bytes differ from the cold response")
	}
	if warm.Header().Get("Content-Type") != "application/json" {
		t.Errorf("warm content type = %q", warm.Header().Get("Content-Type"))
	}
	if hits.Value() != before+1 {
		t.Errorf("hit counter delta = %d, want 1", hits.Value()-before)
	}
}

// The cached path must produce the same payload as a cache-disabled server
// (modulo elapsed_ms, which measures real work).
func TestCachedAndUncachedPayloadsAgree(t *testing.T) {
	cached := New(map[string]*model.Corpus{"Cellphone": cellphoneCorpus(t, 3)}, nil)
	plain := NewWithOptions(map[string]*model.Corpus{"Cellphone": cellphoneCorpus(t, 3)}, nil, Options{CacheDisabled: true})
	req := hotRequest(t, cached)

	norm := func(w *httptest.ResponseRecorder) string {
		var out map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		delete(out, "elapsed_ms")
		b, _ := json.Marshal(out)
		return string(b)
	}
	a := postRecorded(t, cached.Handler(), "/api/v1/select", req)
	b := postRecorded(t, plain.Handler(), "/api/v1/select", req)
	if a.Code != http.StatusOK || b.Code != http.StatusOK {
		t.Fatalf("status %d / %d", a.Code, b.Code)
	}
	if norm(a) != norm(b) {
		t.Errorf("payloads disagree:\ncached:  %s\nuncached: %s", a.Body.String(), b.Body.String())
	}
}

func TestAddCorpusBumpsEpochAndInvalidates(t *testing.T) {
	s := New(map[string]*model.Corpus{"Cellphone": cellphoneCorpus(t, 3)}, nil)
	h := s.Handler()
	req := hotRequest(t, s)

	s.mu.RLock()
	epochBefore := s.epochs["Cellphone"]
	s.mu.RUnlock()

	cold := postRecorded(t, h, "/api/v1/select", req)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: status %d", cold.Code)
	}
	if n := s.cache.Len(); n != 1 {
		t.Fatalf("cache entries after cold request = %d, want 1", n)
	}

	// Replace the corpus: same category, different content.
	s.AddCorpus("Cellphone", cellphoneCorpus(t, 99))
	s.mu.RLock()
	epochAfter := s.epochs["Cellphone"]
	s.mu.RUnlock()
	if epochAfter == epochBefore {
		t.Fatal("epoch token unchanged after AddCorpus")
	}

	// The old cached entry is unreachable: the same request recomputes
	// (a fresh entry appears instead of the old one being served).
	misses := obs.NewCacheMetrics(s.reg, "servecache").Misses
	before := misses.Value()
	resp := postRecorded(t, h, "/api/v1/select", req)
	// The old target may not exist in the replacement corpus; recompute is
	// proven by the miss counter either way.
	if resp.Code != http.StatusOK && resp.Code != http.StatusNotFound {
		t.Fatalf("post-replace: status %d body %s", resp.Code, resp.Body.String())
	}
	if misses.Value() != before+1 {
		t.Errorf("miss counter delta = %d, want 1 (old epoch entry must be unreachable)", misses.Value()-before)
	}
}

// Concurrent identical requests must execute the pipeline exactly once.
func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	s := New(map[string]*model.Corpus{"Cellphone": cellphoneCorpus(t, 3)}, nil)
	h := s.Handler()
	req := hotRequest(t, s)

	fm := obs.NewCacheMetrics(s.reg, "selectflight")
	execBefore := fm.Executions.Value()

	const callers = 12
	var wg sync.WaitGroup
	bodies := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postRecorded(t, h, "/api/v1/select", req)
			if w.Code != http.StatusOK {
				t.Errorf("caller %d: status %d", i, w.Code)
				return
			}
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	wg.Wait()

	// Every response is byte-identical.
	for i := 1; i < callers; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("caller %d got different bytes", i)
		}
	}
	// The pipeline ran once, or — when some callers arrived after the
	// flight finished — their lookups were cache hits, never extra
	// executions.
	if got := fm.Executions.Value() - execBefore; got != 1 {
		t.Errorf("pipeline executions = %d, want exactly 1", got)
	}
}

func TestCacheDisabledServerStillServes(t *testing.T) {
	s := NewWithOptions(map[string]*model.Corpus{"Cellphone": cellphoneCorpus(t, 3)}, nil, Options{CacheDisabled: true})
	if s.cache != nil || s.flights != nil {
		t.Fatal("cache layers built despite CacheDisabled")
	}
	h := s.Handler()
	req := hotRequest(t, s)
	for i := 0; i < 2; i++ {
		if w := postRecorded(t, h, "/api/v1/select", req); w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, w.Code)
		}
	}
}

func TestSelectKeyCanonicalization(t *testing.T) {
	base := SelectRequest{Category: "C", Target: "t", Algorithm: "CompaReSetS+", M: 3, Lambda: 1, Mu: 0.1}
	k1 := selectKey(&base, "1.abc")

	// TimeoutMS must not participate.
	to := base
	to.TimeoutMS = 5000
	if selectKey(&to, "1.abc") != k1 {
		t.Error("timeout_ms leaked into the cache key")
	}
	// Epoch must.
	if selectKey(&base, "2.abc") == k1 {
		t.Error("epoch ignored by the cache key")
	}
	// Every payload-shaping field must.
	variants := []SelectRequest{}
	for _, mutate := range []func(r *SelectRequest){
		func(r *SelectRequest) { r.Target = "u" },
		func(r *SelectRequest) { r.Algorithm = "CompaReSetS" },
		func(r *SelectRequest) { r.M = 4 },
		func(r *SelectRequest) { r.Lambda = 2 },
		func(r *SelectRequest) { r.Mu = 0.2 },
		func(r *SelectRequest) { r.MaxComparative = 7 },
		func(r *SelectRequest) { r.K = 3; r.Method = "greedy" },
		func(r *SelectRequest) { r.Summarize = 1 },
		func(r *SelectRequest) { r.Explain = 2 },
		func(r *SelectRequest) { r.Metrics = true },
	} {
		v := base
		mutate(&v)
		variants = append(variants, v)
	}
	seen := map[string]int{k1: -1}
	for i, v := range variants {
		k := selectKey(&v, "1.abc")
		if j, dup := seen[k]; dup {
			t.Errorf("variants %d and %d collide on key %q", i, j, k)
		}
		seen[k] = i
	}
	// Method distinguishes keys when K > 0.
	g := base
	g.K, g.Method = 3, "greedy"
	e := base
	e.K, e.Method = 3, "exact"
	if selectKey(&g, "1.abc") == selectKey(&e, "1.abc") {
		t.Error("shortlist method ignored by the cache key")
	}
}

// TestConcurrentCacheChurn exercises the full serving path while corpora
// are being replaced — the race certificate for the epoch/cache/flight
// interplay.
func TestConcurrentCacheChurn(t *testing.T) {
	s := New(map[string]*model.Corpus{"Cellphone": cellphoneCorpus(t, 3)}, nil)
	h := s.Handler()
	req := hotRequest(t, s)

	replacement := cellphoneCorpus(t, 3)
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.AddCorpus("Cellphone", replacement)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				rec := postRecorded(t, h, "/api/v1/select", req)
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-churnDone
}

// TestSelectAnswersCarryInstanceHeader: every corpus-referenced select
// answer — servecache miss, hit, and the cache-disabled path — names its
// instance's members in instance order; inline instances carry no header.
func TestSelectAnswersCarryInstanceHeader(t *testing.T) {
	c := cellphoneCorpus(t, 3)
	cached := New(map[string]*model.Corpus{"Cellphone": c}, nil)
	plain := NewWithOptions(map[string]*model.Corpus{"Cellphone": cellphoneCorpus(t, 3)}, nil, Options{CacheDisabled: true})
	req := hotRequest(t, cached)
	req.MaxComparative = 2
	inst, err := c.NewInstance(req.Target, req.MaxComparative)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, it := range inst.Items {
		ids = append(ids, url.QueryEscape(it.ID))
	}
	want := strings.Join(ids, ",")

	for _, tc := range []struct {
		name string
		h    http.Handler
	}{
		{"miss", cached.Handler()},
		{"hit", cached.Handler()},
		{"disabled", plain.Handler()},
	} {
		name := tc.name
		w := postRecorded(t, tc.h, "/api/v1/select", req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", name, w.Code)
		}
		if got := w.Header().Get(InstanceHeader); got != want {
			t.Errorf("%s: %s = %q, want %q", name, InstanceHeader, got, want)
		}
	}

	inline := SelectRequest{Aspects: c.Aspects.Names(), Items: inst.Items, M: 2, Lambda: 1, Mu: 0.1}
	w := postRecorded(t, cached.Handler(), "/api/v1/select", inline)
	if w.Code != http.StatusOK {
		t.Fatalf("inline: status %d body %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get(InstanceHeader); got != "" {
		t.Errorf("inline instance carried %s = %q", InstanceHeader, got)
	}
}

func TestInstanceHeaderValueEscapesSeparators(t *testing.T) {
	inst := &model.Instance{Items: []*model.Item{{ID: "a,b"}, {ID: "50%\noff"}, {ID: "plain"}}}
	if got, want := instanceHeaderValue(inst), "a%2Cb,50%25%0Aoff,plain"; got != want {
		t.Errorf("instanceHeaderValue = %q, want %q", got, want)
	}
}
