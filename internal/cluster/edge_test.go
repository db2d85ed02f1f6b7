package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"comparesets/internal/obs"
	"comparesets/internal/selectreq"
)

// --- canonical key ----------------------------------------------------------

// TestEdgeSelectKeyCanonicalization: the router's strict decode feeds
// selectreq.Key with the worker's defaults applied, so bodies that differ
// only in spelled-out defaults, timeout_ms or field order share a key, and
// every semantic field separates.
func TestEdgeSelectKeyCanonicalization(t *testing.T) {
	mustKey := func(body string) string {
		t.Helper()
		sel, ok := edgeSelectKey([]byte(body))
		if !ok {
			t.Fatalf("body unexpectedly uncacheable: %s", body)
		}
		return sel.key
	}

	// Spelling out the worker's defaults must not change the key.
	base := mustKey(`{"category":"Cameras","target":"cam-1","m":3}`)
	if got := mustKey(`{"category":"Cameras","target":"cam-1","m":3,"algorithm":"CompaReSetS+"}`); got != base {
		t.Errorf("explicit default algorithm changed the key:\n %s\n %s", got, base)
	}
	// timeout_ms bounds computation, never the result bytes.
	if got := mustKey(`{"category":"Cameras","target":"cam-1","m":3,"timeout_ms":250}`); got != base {
		t.Errorf("timeout_ms leaked into the key:\n %s\n %s", got, base)
	}
	// Field order is irrelevant.
	if got := mustKey(`{"m":3,"target":"cam-1","category":"Cameras"}`); got != base {
		t.Errorf("field order changed the key:\n %s\n %s", got, base)
	}
	// Semantic fields must all separate.
	distinct := []string{
		`{"category":"Cameras","target":"cam-1","m":4}`,
		`{"category":"Cameras","target":"cam-2","m":3}`,
		`{"category":"Phones","target":"cam-1","m":3}`,
		`{"category":"Cameras","target":"cam-1","m":3,"lambda":0.5}`,
		`{"category":"Cameras","target":"cam-1","m":3,"k":2}`,
		`{"category":"Cameras","target":"cam-1","m":3,"summarize":2}`,
		`{"category":"Cameras","target":"cam-1","m":3,"metrics":true}`,
	}
	seen := map[string]string{base: "base"}
	for _, body := range distinct {
		k := mustKey(body)
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %s and %s: %s", prev, body, k)
		}
		seen[k] = body
	}
	// k>0 applies the worker's shortlist-method default.
	withK := mustKey(`{"category":"Cameras","target":"cam-1","k":2}`)
	if got := mustKey(`{"category":"Cameras","target":"cam-1","k":2,"method":"greedy"}`); got != withK {
		t.Errorf("explicit default shortlist method changed the key:\n %s\n %s", got, withK)
	}
}

func TestEdgeSelectKeyRefusesUnprovableBodies(t *testing.T) {
	uncacheable := []string{
		`{"target":"cam-1"}`,                                     // no corpus reference
		`{"category":"Cameras"}`,                                 // no target
		`{"category":"Cameras","target":"t","items":[{}]}`,       // inline instance
		`{"category":"Cameras","target":"t","aspects":["size"]}`, // inline aspects
		`{"category":"Cameras","target":"t","new_field":1}`,      // unknown to this router
		`{"category":"Cameras",`,                                 // invalid JSON
		`{"category":"Cameras","target":"t"} {}`,                 // trailing value
		`{"category":"Cameras","target":"t"} x`,                  // trailing garbage
	}
	for _, body := range uncacheable {
		if sel, ok := edgeSelectKey([]byte(body)); ok {
			t.Errorf("body cached despite being unprovable: %s -> %s", body, sel.key)
		}
	}
}

// TestEdgeSelectKeyReturnsRoutingFields: the one strict decode yields the
// fields the read path routes, times, and scopes the select by.
func TestEdgeSelectKeyReturnsRoutingFields(t *testing.T) {
	sel, ok := edgeSelectKey([]byte(`{"category":"Cameras","target":"cam-1","m":3,"max_comparative":4,"timeout_ms":250} ` + "\n"))
	if !ok {
		t.Fatal("body unexpectedly uncacheable")
	}
	if sel.category != "Cameras" || sel.target != "cam-1" || sel.maxComparative != 4 || sel.timeoutMS != 250 {
		t.Errorf("routing fields = %+v", sel)
	}
}

// FuzzSelectKeyParity: for any body the router's strict decode accepts,
// the worker's lenient decode (json.Decoder, first value only, unknown
// fields ignored) followed by the same defaults yields the same canonical
// key and the same routing fields, so the two tiers always agree on which
// requests share an answer.
func FuzzSelectKeyParity(f *testing.F) {
	for _, seed := range []string{
		`{"category":"Cameras","target":"cam-1","m":3}`,
		`{"category":"Cameras","target":"cam-1","m":3,"algorithm":"CompaReSetS+","timeout_ms":250}`,
		`{"Category":"Cameras","TARGET":"cam-1","m":3,"k":2}`,
		`{"category":"Cameras","target":"cam-1","m":3,"k":2,"method":"exact","lambda":0.5,"mu":1e-1}`,
		`{"category":"C|tgt=t","target":"u\u002c","m":1,"max_comparative":4,"summarize":2,"explain":1,"metrics":true}`,
		`{"category":"Cameras","target":"cam-1","target":"cam-2","m":3}`,
		`{"category":"Cameras","target":"cam-1","items":[],"aspects":null}`,
		` {"category":"Cameras","target":"cam-1","lambda":1.0,"mu":0} ` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sel, ok := edgeSelectKey(body)
		if !ok {
			return
		}
		var req selectreq.Request
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("worker refuses a body the router accepted: %v\n%s", err, body)
		}
		selectreq.ApplyDefaults(&req)
		if got := selectreq.Key(&req); got != sel.key {
			t.Fatalf("key mismatch for %s:\n router %s\n worker %s", body, sel.key, got)
		}
		if sel.category != req.Category || sel.target != req.Target ||
			sel.maxComparative != req.MaxComparative || sel.timeoutMS != req.TimeoutMS {
			t.Fatalf("routing fields %+v disagree with the worker's %+v", sel, req)
		}
	})
}

// TestRouterRejectsInvalidSelectJSON: a body the strict edge decode refuses
// falls through to the lenient peek, which still answers 400 for invalid
// JSON — including a valid object followed by garbage — without touching a
// backend.
func TestRouterRejectsInvalidSelectJSON(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t)}
	_, ts, _ := newTestRouter(t, workers, nil)
	for _, body := range []string{
		`{"category":"Cameras",`,
		`{"category":"Cameras","target":"cam-1","m":3} x`,
	} {
		resp, out := postSelect(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d (%s), want 400", body, resp.StatusCode, out)
		}
	}
	if selects, _ := workers[0].stats(); selects != 0 {
		t.Errorf("backend saw %d selects for invalid bodies, want 0", selects)
	}
}

// --- per-instance state tokens ---------------------------------------------

// edgeProbe drives an edgeCache directly, as the read path does.
type edgeProbe struct {
	t *testing.T
	e *edgeCache
}

func (p edgeProbe) sel(category, target string) *edgeSelect {
	return &edgeSelect{key: "canon|" + category + "|" + target, category: category, target: target}
}

// key returns the read's cache identity, its key and state token, or ""
// while its membership is unknown.
func (p edgeProbe) key(s *edgeSelect) string {
	token, _ := p.e.lookup(s)
	if token == "" {
		return ""
	}
	return s.key + "@" + token
}

// fill snapshots a read and completes it with the given instance header.
func (p edgeProbe) fill(s *edgeSelect, instance string) {
	_, seq, _ := p.e.get(s)
	p.e.fill(s, seq, instance, []byte("payload-"+s.target))
}

// hit reports whether the read is answered from the cache.
func (p edgeProbe) hit(s *edgeSelect) bool {
	_, _, ok := p.e.get(s)
	return ok
}

func (p edgeProbe) receipt(epoch, item string, gen int) {
	p.e.applyReceipt("Cameras", []byte(fmt.Sprintf(
		`{"kind":"append","category":"Cameras","item":%q,"epoch":%q,"generation":%d,"affected_items":[%q]}`,
		item, epoch, gen, item)))
}

// TestEdgeCategoryStateTokens: a receipt for item X moves the token of
// exactly the instances containing X; flushes and fingerprint changes move
// every token of the category and forget memberships.
func TestEdgeCategoryStateTokens(t *testing.T) {
	p := edgeProbe{t, newEdgeCache(1<<20, obs.NewRegistry())}
	const epoch = "3.00000000deadbeef"
	a, b := p.sel("Cameras", "cam-1"), p.sel("Cameras", "cam-3")

	if p.key(a) != "" {
		t.Fatal("membership known before any fill")
	}
	// The first receipt reconciles the category's lineage.
	p.receipt(epoch, "cam-9", 1)
	p.fill(a, "cam-1,cam-2")
	p.fill(b, "cam-3,cam-4")
	a0, b0 := p.key(a), p.key(b)
	if a0 == "" || b0 == "" || a0 == b0 {
		t.Fatalf("fills did not memoize distinct keys: %q %q", a0, b0)
	}
	if !p.hit(a) || !p.hit(b) {
		t.Fatal("filled answers are not cache hits")
	}

	// A member of a only.
	p.receipt(epoch, "cam-2", 1)
	a1 := p.key(a)
	if a1 == a0 {
		t.Error("receipt for a member did not move its instance's token")
	}
	if p.hit(a) {
		t.Error("an answer filled under the old token was served under the new one")
	}
	// The refill under the new token replaces the old entry.
	p.fill(a, "cam-1,cam-2")
	if !p.hit(a) || p.e.cache.Len() != 2 {
		t.Errorf("after the refill: hit %v, %d entries, want a hit and 2", p.hit(a), p.e.cache.Len())
	}
	if p.key(b) != b0 || !p.hit(b) {
		t.Error("receipt for a non-member moved the token")
	}
	// Re-applying the identical receipt is idempotent — no spurious churn.
	p.receipt(epoch, "cam-2", 1)
	if p.key(a) != a1 {
		t.Error("identical receipt advanced the token again")
	}
	// A later generation of b's member moves only b.
	p.receipt(epoch, "cam-4", 2)
	b1 := p.key(b)
	if b1 == b0 || p.key(a) != a1 {
		t.Errorf("cam-4 receipt: a %q->%q, b %q->%q", a1, p.key(a), b0, b1)
	}
	// An item in neither instance moves neither.
	p.receipt(epoch, "cam-7", 1)
	if p.key(a) != a1 || p.key(b) != b1 {
		t.Error("receipt for an item in no instance moved a token")
	}

	// A flush moves every token and forgets membership.
	p.e.flush("Cameras")
	if p.key(a) != "" || p.key(b) != "" {
		t.Fatal("flush kept memoized memberships")
	}
	p.fill(a, "cam-1,cam-2")
	if k := p.key(a); k == a0 || k == a1 {
		t.Errorf("post-flush token %q repeats a pre-flush token", k)
	}
	// A new corpus fingerprint starts a new lineage.
	p.receipt("4.00000000feedf00d", "cam-9", 1)
	if p.key(a) != "" {
		t.Error("fingerprint change kept memoized memberships")
	}
	// Other categories are untouched throughout.
	if ph := p.sel("Phones", "ph-1"); p.key(ph) != "" || p.hit(ph) {
		t.Error("untouched category gained state")
	}

	// Receipts the edge cannot interpret exactly degrade to flushes.
	reg := obs.NewRegistry()
	e2 := newEdgeCache(1<<20, reg)
	e2.applyReceipt("Cameras", []byte(`not json`))
	e2.applyReceipt("Cameras", []byte(`{"epoch":"1.aa","generation":4,"affected_items":["a","b"]}`)) // multi-item
	e2.applyReceipt("Cameras", []byte(`{"epoch":"1.aa","generation":0,"item":"a"}`))                 // no generation
	if got := counterSnapshot(reg, `comparesets_router_edge_invalidations_total{scope="flush"}`); got != 3 {
		t.Errorf("flush invalidations = %d, want 3", got)
	}
	if got := counterSnapshot(reg, `comparesets_router_edge_invalidations_total{scope="receipt"}`); got != 0 {
		t.Errorf("receipt invalidations = %d, want 0", got)
	}
}

// TestEdgeFillRejectsStraddlingSnapshots: an answer is memoized only if no
// flush and no receipt for any member landed after its read's snapshot,
// and only if it names its instance.
func TestEdgeFillRejectsStraddlingSnapshots(t *testing.T) {
	p := edgeProbe{t, newEdgeCache(1<<20, obs.NewRegistry())}
	const epoch = "3.00000000deadbeef"
	p.receipt(epoch, "cam-9", 1)
	a, b := p.sel("Cameras", "cam-1"), p.sel("Cameras", "cam-3")

	// A member receipt between snapshot and fill: membership is learned
	// (it cannot change within a lineage) but the bytes are dropped.
	_, seq, _ := p.e.get(a)
	p.receipt(epoch, "cam-2", 1)
	p.e.fill(a, seq, "cam-1,cam-2", []byte("pre-write"))
	if p.key(a) == "" {
		t.Error("membership not learned from a straddling fill")
	}
	if p.hit(a) {
		t.Fatal("bytes of a fill straddling a member receipt were memoized")
	}
	// A non-member receipt between snapshot and fill leaves it valid.
	_, seq, _ = p.e.get(a)
	p.receipt(epoch, "cam-7", 1)
	p.e.fill(a, seq, "cam-1,cam-2", []byte("valid"))
	if payload, _, ok := p.e.get(a); !ok || string(payload) != "valid" {
		t.Errorf("fill straddling a non-member receipt not memoized (%q, %v)", payload, ok)
	}

	// A flush between snapshot and fill: nothing is learned or memoized.
	_, seq, _ = p.e.get(b)
	p.e.flush("Cameras")
	p.e.fill(b, seq, "cam-3,cam-4", []byte("pre-flush"))
	if p.key(b) != "" || p.hit(b) {
		t.Error("fill straddling a flush was memoized")
	}

	// Answers without the instance header are never memoized.
	p.fill(b, "")
	if p.key(b) != "" || p.hit(b) {
		t.Error("header-less fill was memoized")
	}
	// A malformed header is no header.
	p.fill(b, "cam-3,%zz")
	if p.key(b) != "" {
		t.Error("malformed header was memoized")
	}
}

// TestEdgeInstanceMemoIsBounded: the membership memo resets on overflow.
func TestEdgeInstanceMemoIsBounded(t *testing.T) {
	p := edgeProbe{t, newEdgeCache(1<<20, obs.NewRegistry())}
	for i := 0; i <= maxEdgeInstances; i++ {
		p.fill(p.sel("Cameras", fmt.Sprintf("t-%d", i)), fmt.Sprintf("t-%d", i))
	}
	if n := len(p.e.cats["Cameras"].instances); n > maxEdgeInstances || n == 0 {
		t.Errorf("membership memo holds %d entries, want 1..%d", n, maxEdgeInstances)
	}
}

// TestParseInstanceHeader: the edge learns an instance's members from the
// worker's escaped instance header, and a malformed or empty header leaves
// the membership unknown and the answer unmemoized.
func TestParseInstanceHeader(t *testing.T) {
	p := edgeProbe{t, newEdgeCache(1<<20, obs.NewRegistry())}
	sel := p.sel("Cameras", "cam-1")
	p.fill(sel, "a%2Cb,50%25%0Aoff,plain+text")
	in := p.e.cats["Cameras"].instances[edgeInstanceKey{sel.target, sel.maxComparative}]
	if in == nil || !slices.Equal(in.ids, []string{"a,b", "50%\noff", "plain text"}) {
		t.Errorf("learned membership = %+v", in)
	}
	if !p.hit(sel) {
		t.Error("answer with a well-formed header was not memoized")
	}
	for _, bad := range []string{"", "x,%zz"} {
		sel := p.sel("Cameras", "bad-"+bad)
		p.fill(sel, bad)
		if k := p.key(sel); k != "" || p.hit(sel) {
			t.Errorf("header %q: membership learned (key %q) or answer memoized", bad, k)
		}
	}
}

// counterSnapshot reads one exact counter series from a registry snapshot.
func counterSnapshot(reg *obs.Registry, series string) uint64 {
	if v, ok := reg.Snapshot()[series]; ok {
		if c, ok := v.(uint64); ok {
			return c
		}
	}
	return 0
}

// --- routed edge behavior ---------------------------------------------------

// TestRouterEdgeWarmHitSkipsBackends: the second identical select is
// answered at the edge, byte-for-byte the memoized proxied response,
// without another backend exchange.
func TestRouterEdgeWarmHitSkipsBackends(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t)}
	rt, ts, _ := newTestRouter(t, workers, nil)

	body := `{"category":"Cameras","target":"cam-1","m":3}`
	resp1, cold := postSelect(t, ts.URL, body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold select: status %d body %s", resp1.StatusCode, cold)
	}
	resp2, warm := postSelect(t, ts.URL, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm select: status %d", resp2.StatusCode)
	}
	if warm != cold {
		t.Errorf("warm hit not byte-identical:\ncold %s\nwarm %s", cold, warm)
	}
	if selects, _ := workers[0].stats(); selects != 1 {
		t.Errorf("backend saw %d selects, want 1 (warm hit must not proxy)", selects)
	}
	if got := counterValue(rt, "comparesets_cache_hits_total"); got != 1 {
		t.Errorf("edge hit counter = %d, want 1", got)
	}
	// A semantically different request is its own entry, not a collision.
	resp3, other := postSelect(t, ts.URL, `{"category":"Cameras","target":"cam-1","m":4}`)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("distinct select: status %d", resp3.StatusCode)
	}
	_ = other
	if selects, _ := workers[0].stats(); selects != 2 {
		t.Errorf("backend saw %d selects, want 2 (distinct key must proxy)", selects)
	}
}

// TestRouterEdgeUncacheableBodiesBypass: inline-instance and unknown-field
// selects never populate or consult the edge.
func TestRouterEdgeUncacheableBodiesBypass(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t)}
	rt, ts, _ := newTestRouter(t, workers, nil)

	body := `{"category":"Cameras","target":"cam-1","items":[{"id":"x"}]}`
	for i := 0; i < 2; i++ {
		resp, _ := postSelect(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("select %d: status %d", i, resp.StatusCode)
		}
	}
	if selects, _ := workers[0].stats(); selects != 2 {
		t.Errorf("backend saw %d selects, want 2 (uncacheable must always proxy)", selects)
	}
	if got := counterValue(rt, "comparesets_cache_hits_total"); got != 0 {
		t.Errorf("edge hit counter = %d, want 0", got)
	}
}

// TestRouterEdgeReceiptInvalidatesMutatedCategoryOnly: a mutation's quorum
// receipt drops the mutated category's warm entries before the client sees
// the receipt, while untouched categories keep serving from the edge.
func TestRouterEdgeReceiptInvalidatesMutatedCategoryOnly(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t), newMockWorker(t)}
	rt, ts, byAddr := newTestRouter(t, workers, nil)
	for _, w := range byAddr {
		w.receipt.Store(`{"kind":"append","category":"Cameras","item":"cam-1","epoch":"1.00000000deadbeef","generation":2,"affected_items":["cam-1"]}`)
	}
	totalSelects := func() int {
		n := 0
		for _, w := range workers {
			s, _ := w.stats()
			n += s
		}
		return n
	}

	camBody := `{"category":"Cameras","target":"cam-1","m":3}`
	phoneBody := `{"category":"Phones","target":"ph-1","m":3}`
	postSelect(t, ts.URL, camBody)   // fill Cameras
	postSelect(t, ts.URL, phoneBody) // fill Phones
	if got := totalSelects(); got != 2 {
		t.Fatalf("warm-up proxied %d selects, want 2", got)
	}
	postSelect(t, ts.URL, camBody)
	postSelect(t, ts.URL, phoneBody)
	if got := totalSelects(); got != 2 {
		t.Fatalf("warm reads proxied anyway (%d backend selects, want 2)", got)
	}

	resp, err := http.Post(ts.URL+"/api/v1/corpora/Cameras/items/cam-1/reviews",
		"application/json", strings.NewReader(`{"reviews":[{"id":"r-1","item_id":"cam-1","rating":4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation status %d", resp.StatusCode)
	}

	// The mutated category re-proxies; no stale replay after the write.
	postSelect(t, ts.URL, camBody)
	if got := totalSelects(); got != 3 {
		t.Errorf("post-mutation Cameras select did not proxy (%d backend selects, want 3)", got)
	}
	// The untouched category stays warm.
	postSelect(t, ts.URL, phoneBody)
	if got := totalSelects(); got != 3 {
		t.Errorf("untouched Phones category lost its warm entry (%d backend selects)", got)
	}
	if got := counterSnapshot(rt.Registry(), `comparesets_router_edge_invalidations_total{scope="receipt"}`); got != 1 {
		t.Errorf("receipt invalidations = %d, want 1", got)
	}
}

// TestRouterEdgeErrorFlightsAreNotMemoized: a failed upstream answer is
// replayed but never cached — the next read goes upstream again.
func TestRouterEdgeErrorFlightsAreNotMemoized(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t)}
	rt, ts, _ := newTestRouter(t, workers, func(o *tuning) {
		o.maxRetries = 0 // no retries: one failed attempt settles the read
	})
	_ = rt
	workers[0].fail.Store(true)

	body := `{"category":"Cameras","target":"cam-1","m":3}`
	resp, _ := postSelect(t, ts.URL, body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed select: status %d, want 500 forwarded", resp.StatusCode)
	}
	workers[0].fail.Store(false)
	resp, _ = postSelect(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered select: status %d, want 200 (error must not be cached)", resp.StatusCode)
	}
	afterRecover, _ := workers[0].stats()
	resp, _ = postSelect(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm select after recovery: status %d", resp.StatusCode)
	}
	if afterWarm, _ := workers[0].stats(); afterWarm != afterRecover {
		t.Errorf("recovered 200 was not memoized (%d -> %d backend selects)", afterRecover, afterWarm)
	}
}

// TestRouterEdgeDivergenceAndRejoinFlushConservatively: both marking a
// replica divergent and readmitting it flush the category's edge entries,
// so serves around membership changes are proxied, never replayed.
func TestRouterEdgeDivergenceAndRejoinFlushConservatively(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t), newMockWorker(t)}
	rt, ts, byAddr := newTestRouter(t, workers, nil)
	placement := rt.Ring().Placement("Cameras")
	good, stray := byAddr[placement[0]], byAddr[placement[1]]
	totalSelects := func() int {
		a, _ := good.stats()
		b, _ := stray.stats()
		return a + b
	}
	mutate := func(id string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/corpora/Cameras/items/cam-1/reviews",
			"application/json", strings.NewReader(fmt.Sprintf(`{"reviews":[{"id":%q,"item_id":"cam-1","rating":4}]}`, id)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mutation status %d", resp.StatusCode)
		}
	}

	body := `{"category":"Cameras","target":"cam-1","m":3}`
	postSelect(t, ts.URL, body)
	postSelect(t, ts.URL, body)
	if got := totalSelects(); got != 1 {
		t.Fatalf("warm-up: %d backend selects, want 1", got)
	}

	// Divergence: stray answers the write with a mismatched fingerprint.
	good.receipt.Store(`{"kind":"append","category":"Cameras","item":"cam-1","epoch":"2.00000000deadbeef","generation":2,"affected_items":["cam-1"]}`)
	stray.receipt.Store(`{"kind":"append","category":"Cameras","item":"cam-1","epoch":"2.00000000000000bad","generation":2,"affected_items":["cam-1"]}`)
	mutate("r-1")
	if !rt.isDivergent(placement[1], "Cameras") {
		t.Fatal("stray replica not marked divergent")
	}
	postSelect(t, ts.URL, body) // must proxy: category flushed + receipt applied
	if got := totalSelects(); got != 2 {
		t.Errorf("post-divergence select did not proxy (%d backend selects, want 2)", got)
	}
	postSelect(t, ts.URL, body) // warm again
	if got := totalSelects(); got != 2 {
		t.Fatalf("re-warm select proxied (%d backend selects, want 2)", got)
	}

	// Rejoin: the stray's next receipt matches the quorum, readmitting it —
	// which changes who answers reads, so the category flushes again.
	good.receipt.Store(`{"kind":"append","category":"Cameras","item":"cam-1","epoch":"3.00000000feedf00d","generation":3,"affected_items":["cam-1"]}`)
	stray.receipt.Store(`{"kind":"append","category":"Cameras","item":"cam-1","epoch":"9.00000000feedf00d","generation":3,"affected_items":["cam-1"]}`)
	mutate("r-2")
	if rt.isDivergent(placement[1], "Cameras") {
		t.Fatal("stray replica not readmitted after matching receipt")
	}
	postSelect(t, ts.URL, body)
	if got := totalSelects(); got != 3 {
		t.Errorf("post-rejoin select did not proxy (%d backend selects, want 3)", got)
	}
	if got := counterSnapshot(rt.Registry(), `comparesets_router_edge_invalidations_total{scope="flush"}`); got < 2 {
		t.Errorf("flush invalidations = %d, want >= 2 (divergence + rejoin)", got)
	}
}
