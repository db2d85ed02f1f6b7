package cluster

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"comparesets/internal/datagen"
	"comparesets/internal/dataset"
	"comparesets/internal/faultinject"
	"comparesets/internal/lexicon"
	"comparesets/internal/model"
	"comparesets/internal/obs"
	"comparesets/internal/selectreq"
	"comparesets/internal/service"
)

// The edge's invalidation scope is one instance: a receipt for item X
// re-keys exactly the entries whose instance contains X. These tests pin
// that scope against mock and real workers.

// routedMutation sends one review mutation through the router and fails
// the test unless it is acked.
func routedMutation(t *testing.T, client *http.Client, method, url, body string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d body %s", method, url, resp.StatusCode, b)
	}
}

func itemReviewsURL(base, category, item string) string {
	return base + "/api/v1/corpora/" + url.PathEscape(category) + "/items/" + url.PathEscape(item) + "/reviews"
}

// mockReceipt is a single-item append receipt in one fixed lineage.
func mockReceipt(item string, gen int) string {
	return fmt.Sprintf(`{"kind":"append","category":"Cameras","item":%q,"epoch":"1.00000000deadbeef","generation":%d,"affected_items":[%q]}`,
		item, gen, item)
}

// TestRouterEdgeHeaderlessAnswersAreNotMemoized: a 200 that does not name
// its instance is served but never memoized, because the edge could not
// tell which receipts invalidate it.
func TestRouterEdgeHeaderlessAnswersAreNotMemoized(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t)}
	rt, ts, _ := newTestRouter(t, workers, nil)
	w := workers[0]
	w.noInstance.Store(true)

	body := `{"category":"Cameras","target":"cam-1","m":3}`
	for i := 0; i < 2; i++ {
		if resp, out := postSelect(t, ts.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("header-less select %d: status %d body %s", i, resp.StatusCode, out)
		}
	}
	if selects, _ := w.stats(); selects != 2 {
		t.Errorf("backend saw %d selects, want 2 (header-less answers must not be memoized)", selects)
	}
	if got := counterSnapshot(rt.Registry(), `comparesets_cache_hits_total{cache="router_edge"}`); got != 0 {
		t.Errorf("edge hits = %d, want 0", got)
	}

	// The same read memoizes once the worker names the instance.
	w.noInstance.Store(false)
	postSelect(t, ts.URL, body)
	postSelect(t, ts.URL, body)
	if selects, _ := w.stats(); selects != 3 {
		t.Errorf("backend saw %d selects, want 3 (headed answer must be memoized)", selects)
	}
}

// TestRouterEdgeStraddlingFlight: a write acked while a cold read is in
// flight. If the write touches a member of the read's instance, the read's
// bytes are not memoized and a reader admitted after the ack is served
// fresh bytes; if it touches no member, the read's answer is still valid
// and memoized.
func TestRouterEdgeStraddlingFlight(t *testing.T) {
	workers := []*mockWorker{newMockWorker(t)}
	_, ts, _ := newTestRouter(t, workers, nil)
	w := workers[0]
	w.members.Store(map[string][]string{"cam-1": {"cam-1", "cam-2"}})
	client := &http.Client{Timeout: 10 * time.Second}
	mutate := func(item string, gen int) {
		t.Helper()
		w.receipt.Store(mockReceipt(item, gen))
		routedMutation(t, client, http.MethodPost, itemReviewsURL(ts.URL, "Cameras", item),
			`{"reviews":[{"id":"r","item_id":"x","rating":4}]}`)
	}
	// launch starts a cold read in the background and returns once the
	// backend holds it.
	launch := func() <-chan string {
		t.Helper()
		before, _ := w.stats()
		out := make(chan string, 1)
		go func() {
			_, b, err := post(client, ts.URL+"/api/v1/select", `{"category":"Cameras","target":"cam-1","m":3}`)
			if err != nil {
				b = []byte("error: " + err.Error())
			}
			out <- string(b)
		}()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if n, _ := w.stats(); n > before {
				return out
			}
			if time.Now().After(deadline) {
				t.Fatal("straddling read never reached the backend")
			}
		}
	}
	body := `{"category":"Cameras","target":"cam-1","m":3}`

	// The first receipt reconciles the category's lineage.
	mutate("cam-9", 1)
	w.delay.Store(int64(300 * time.Millisecond))

	// Member write: cam-2 is in cam-1's instance. Only the straddling
	// read is slow, so the post-ack read fills first and the straddling
	// flight completes last — the order in which memoizing its pre-write
	// bytes would overwrite the fresh entry.
	pre := launch()
	w.delay.Store(0)
	mutate("cam-2", 1)
	_, after := postSelect(t, ts.URL, body)
	if selects, _ := w.stats(); selects != 2 {
		t.Fatalf("post-ack reader joined the pre-write flight (%d backend selects, want 2)", selects)
	}
	if !strings.Contains(after, `"writes":2`) {
		t.Errorf("post-ack reader got pre-write bytes: %s", after)
	}
	if got := <-pre; !strings.Contains(got, `"writes":1`) {
		t.Fatalf("straddling flight answered %s, want the pre-write bytes", got)
	}
	_, again := postSelect(t, ts.URL, body)
	if again != after {
		t.Errorf("read after both flights = %s, want the post-write fill %s", again, after)
	}
	if selects, _ := w.stats(); selects != 2 {
		t.Errorf("post-write fill was not memoized (%d backend selects, want 2)", selects)
	}

	// Non-member write: cam-7 is in no instance, so the straddling flight's
	// answer stays valid and is memoized. The key moves to a fresh one
	// first (cam-2 again), so the next read is cold.
	mutate("cam-2", 2)
	w.delay.Store(int64(300 * time.Millisecond))
	pre = launch()
	w.delay.Store(0)
	mutate("cam-7", 1)
	straddled := <-pre
	selects, _ := w.stats()
	_, warm := postSelect(t, ts.URL, body)
	if warm != straddled {
		t.Errorf("read after a non-member write = %s, want the straddling flight's %s", warm, straddled)
	}
	if n, _ := w.stats(); n != selects {
		t.Errorf("non-member write dropped the straddling fill (%d -> %d backend selects)", selects, n)
	}
}

// realCluster is a router over two real workers serving identical corpora.
type realCluster struct {
	svc    *service.Server
	direct string // one worker's base URL
	rt     *Router
	url    string // the router's base URL
	client *http.Client
}

func newRealCluster(t *testing.T, corpora func() map[string]*model.Corpus) *realCluster {
	t.Helper()
	var svc *service.Server
	var addrs []string
	for i := 0; i < 2; i++ {
		svc = service.NewWithOptions(corpora(), testLogger(t), service.Options{})
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		addrs = append(addrs, ts.URL)
	}
	rt, err := newRouter(RouterOptions{
		Backends: addrs,
		Logger:   testLogger(t),
	}, pollEvery(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	routerTS := httptest.NewServer(rt.Handler())
	t.Cleanup(routerTS.Close)
	return &realCluster{svc: svc, direct: addrs[1], rt: rt, url: routerTS.URL, client: &http.Client{Timeout: 30 * time.Second}}
}

func defaultCorpora(seed int64) func() map[string]*model.Corpus {
	return func() map[string]*model.Corpus {
		out := map[string]*model.Corpus{}
		for _, cfg := range datagen.DefaultConfigs(seed) {
			c, err := datagen.Generate(cfg)
			if err != nil {
				panic(err)
			}
			out[c.Category] = c
		}
		return out
	}
}

// selectRouted posts body to the router and to the direct worker right
// after, and fails unless both answer 200 with the same bytes modulo
// elapsed_ms. It returns the routed bytes.
func (c *realCluster) selectRouted(t *testing.T, body string) []byte {
	t.Helper()
	status, routed, err := post(c.client, c.url+"/api/v1/select", body)
	if err != nil || status != http.StatusOK {
		t.Fatalf("routed select %s: status %d err %v body %s", body, status, err, routed)
	}
	status, direct, err := post(c.client, c.direct+"/api/v1/select", body)
	if err != nil || status != http.StatusOK {
		t.Fatalf("direct select %s: status %d err %v", body, status, err)
	}
	if got, want := normalizeElapsed(routed), normalizeElapsed(direct); got != want {
		t.Fatalf("routed answer diverges from the worker's for %s:\n routed %s\n direct %s", body, got, want)
	}
	return routed
}

func (c *realCluster) counter(series string) uint64 {
	return counterSnapshot(c.rt.Registry(), series)
}

func (c *realCluster) forwards() uint64 {
	return counterValue(c.rt, "comparesets_router_forward_total")
}

const (
	edgeHits   = `comparesets_cache_hits_total{cache="router_edge"}`
	edgeMisses = `comparesets_cache_misses_total{cache="router_edge"}`
)

// instanceMembers resolves each target's instance the way the worker does.
func instanceMembers(t *testing.T, c *model.Corpus, targets []string, maxComparative int) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, tgt := range targets {
		inst, err := c.NewInstance(tgt, maxComparative)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range inst.Items {
			out[tgt] = append(out[tgt], it.ID)
		}
	}
	return out
}

// TestRouterEdgeWarmHitPreservation: after a write to item X, every target
// whose instance excludes X is still an edge hit with zero upstream
// selects, and every target whose instance includes X re-proxies and
// tracks the workers byte-for-byte.
func TestRouterEdgeWarmHitPreservation(t *testing.T) {
	if testing.Short() {
		t.Skip("real-corpus cluster test")
	}
	c := newRealCluster(t, defaultCorpora(42))
	cat := c.svc.Categories()[0]
	corpus, _ := c.svc.Corpus(cat)
	targets := dataset.TargetIDs(corpus)
	if len(targets) > 24 {
		targets = targets[:24]
	}
	members := instanceMembers(t, corpus, targets, 0)

	// X is the item in the most instances, short of all of them.
	count := map[string]int{}
	for _, ids := range members {
		for _, id := range ids {
			count[id]++
		}
	}
	x := ""
	for id, n := range count {
		if n < len(targets) && (x == "" || n > count[x] || n == count[x] && id < x) {
			x = id
		}
	}
	var with, without []string
	for _, tgt := range targets {
		if slices.Contains(members[tgt], x) {
			with = append(with, tgt)
		} else {
			without = append(without, tgt)
		}
	}
	if len(with) == 0 || len(without) == 0 {
		t.Fatalf("no split on %q: %d with, %d without", x, len(with), len(without))
	}

	// The first receipt reconciles the category's lineage, which re-keys
	// the whole category once; warm up after it.
	routedMutation(t, c.client, http.MethodPost, itemReviewsURL(c.url, cat, x), appendBody("preserve-r0", x))
	for _, tgt := range targets {
		c.selectRouted(t, selectBody(cat, tgt))
		c.selectRouted(t, selectBody(cat, tgt))
	}
	if hits := c.counter(edgeHits); hits != uint64(len(targets)) {
		t.Fatalf("warm-up edge hits = %d, want %d", hits, len(targets))
	}

	routedMutation(t, c.client, http.MethodPost, itemReviewsURL(c.url, cat, x), appendBody("preserve-r1", x))
	hits, misses, fwd := c.counter(edgeHits), c.counter(edgeMisses), c.forwards()
	for _, tgt := range without {
		c.selectRouted(t, selectBody(cat, tgt))
	}
	if got := c.counter(edgeHits) - hits; got != uint64(len(without)) {
		t.Errorf("targets without %q: %d edge hits, want %d", x, got, len(without))
	}
	if got := c.forwards() - fwd; got != 0 {
		t.Errorf("targets without %q: %d upstream attempts, want 0", x, got)
	}
	for _, tgt := range with {
		c.selectRouted(t, selectBody(cat, tgt))
	}
	if got := c.counter(edgeMisses) - misses; got != uint64(len(with)) {
		t.Errorf("targets with %q: %d edge misses, want %d (stale bytes replayed)", x, got, len(with))
	}
	if got := c.forwards() - fwd; got < uint64(len(with)) {
		t.Errorf("targets with %q: %d upstream attempts, want >= %d", x, got, len(with))
	}
	if got := c.counter(`comparesets_router_edge_invalidations_total{scope="receipt"}`); got != 2 {
		t.Errorf("receipt invalidations = %d, want 2", got)
	}
}

// TestRouterEdgeInstanceHeaderRoundTrip: item IDs containing the header's
// separator, its escape character, and a newline survive the worker's
// encoding and the edge's decoding, so writes to such items still re-key
// exactly their instances.
func TestRouterEdgeInstanceHeaderRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("real-corpus cluster test")
	}
	rename := func(id string) string { return "a,b%2C\n" + id + ",%" }
	corpora := func() map[string]*model.Corpus {
		src, err := datagen.Generate(datagen.Config{
			Category: lexicon.Cellphone, Products: 16, Reviewers: 40,
			MeanReviews: 6, MeanAlsoBought: 4, Seed: 5,
		})
		if err != nil {
			panic(err)
		}
		c := model.NewCorpus(src.Category, src.Aspects)
		for _, it := range src.Items {
			cp := *it
			cp.ID = rename(it.ID)
			cp.AlsoBought = nil
			for _, ab := range it.AlsoBought {
				cp.AlsoBought = append(cp.AlsoBought, rename(ab))
			}
			cp.Reviews = nil
			for _, r := range it.Reviews {
				rc := *r
				rc.ItemID = cp.ID
				cp.Reviews = append(cp.Reviews, &rc)
			}
			c.AddItem(&cp)
		}
		return map[string]*model.Corpus{c.Category: c}
	}
	c := newRealCluster(t, corpora)
	cat := c.svc.Categories()[0]
	corpus, _ := c.svc.Corpus(cat)
	targets := dataset.TargetIDs(corpus)
	if len(targets) == 0 {
		t.Fatal("no targets")
	}
	tgt := targets[0]
	want := instanceMembers(t, corpus, []string{tgt}, 0)[tgt]
	body := selectBody(cat, tgt)

	resp, err := c.client.Post(c.direct+"/api/v1/select", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	raw := resp.Header.Get(selectreq.InstanceHeader)
	if strings.Contains(raw, "\n") || strings.Count(raw, ",") != len(want)-1 {
		t.Fatalf("header not escaped: %q", raw)
	}
	got, ok := selectreq.ParseInstance(raw)
	if !ok || !slices.Equal(got, want) {
		t.Fatalf("header %q decodes to %q, want %q", raw, got, want)
	}

	// Routed: cold, then warm from the edge.
	routedMutation(t, c.client, http.MethodPost, itemReviewsURL(c.url, cat, want[0]), appendBody("rt-r0", want[0]))
	c.selectRouted(t, body)
	hits := c.counter(edgeHits)
	c.selectRouted(t, body)
	if c.counter(edgeHits) != hits+1 {
		t.Fatal("escaped-ID instance was not memoized")
	}
	// A write to the last member (its ID holds all three characters)
	// re-keys the instance.
	member := want[len(want)-1]
	misses := c.counter(edgeMisses)
	routedMutation(t, c.client, http.MethodPost, itemReviewsURL(c.url, cat, member), appendBody("rt-r1", member))
	c.selectRouted(t, body)
	if c.counter(edgeMisses) != misses+1 {
		t.Error("write to an escaped-ID member did not re-key its instance")
	}
}

// TestRouterEdgeNeverMemoizesNonCanonicalAnswers: answers a real worker
// serves without the instance header — a stale-while-error serve and an
// exact shortlist shed under admission pressure — pass through the edge
// verbatim but are never memoized, so each repeat read is proxied again and
// the edge never reports a hit.
func TestRouterEdgeNeverMemoizesNonCanonicalAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("real-corpus cluster test")
	}
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	client := &http.Client{Timeout: 15 * time.Second}

	// readTwice routes body twice through a router over svc alone. Both
	// answers must carry marker, each must reach the worker (as counted by
	// the worker-side series), and the edge must never hit. contend, when
	// set, runs each read, given the worker's URL.
	readTwice := func(t *testing.T, svc *service.Server, body, marker, series string, labels obs.Labels,
		contend func(t *testing.T, workerURL string, read func() (int, []byte, error)) (int, []byte, error)) {
		t.Helper()
		if contend == nil {
			contend = func(_ *testing.T, _ string, read func() (int, []byte, error)) (int, []byte, error) { return read() }
		}
		w := httptest.NewServer(svc.Handler())
		defer w.Close()
		rt, err := NewRouter(RouterOptions{Backends: []string{w.URL}, Logger: testLogger(t)})
		if err != nil {
			t.Fatal(err)
		}
		routerTS := httptest.NewServer(rt.Handler())
		defer routerTS.Close()
		served := func() uint64 { return svc.Registry().Counter(series, "", labels).Value() }
		before := served()
		for i := 0; i < 2; i++ {
			status, out, err := contend(t, w.URL, func() (int, []byte, error) {
				return post(client, routerTS.URL+"/api/v1/select", body)
			})
			if err != nil || status != http.StatusOK {
				t.Fatalf("read %d: status %d err %v body %s", i, status, err, out)
			}
			if !strings.Contains(string(out), marker) {
				t.Fatalf("read %d lacks %s: %s", i, marker, out)
			}
		}
		if got := served() - before; got != 2 {
			t.Errorf("worker served %d of 2 reads: the edge memoized a non-canonical answer", got)
		}
		if hits := counterSnapshot(rt.Registry(), edgeHits); hits != 0 {
			t.Errorf("edge hits = %d, want 0", hits)
		}
	}
	corpora := defaultCorpora(42)
	firstTarget := func(svc *service.Server) (cat, tgt string) {
		cat = svc.Categories()[0]
		corpus, _ := svc.Corpus(cat)
		return cat, dataset.TargetIDs(corpus)[0]
	}

	t.Run("stale-while-error", func(t *testing.T) {
		svc := service.NewWithOptions(corpora(), testLogger(t), service.Options{})
		cat, tgt := firstTarget(svc)
		body := selectBody(cat, tgt)
		// A first answer seeds the worker's stale copy; replacing the
		// corpus re-keys its primary entry, and the pipeline then fails.
		w := httptest.NewServer(svc.Handler())
		status, out, err := post(client, w.URL+"/api/v1/select", body)
		w.Close()
		if err != nil || status != http.StatusOK {
			t.Fatalf("seeding select: status %d err %v body %s", status, err, out)
		}
		c, _ := svc.Corpus(cat)
		svc.AddCorpus(cat, c)
		faultinject.Arm(faultinject.PointServiceSelect, faultinject.Fault{Mode: faultinject.ModeError})
		defer faultinject.Reset()
		readTwice(t, svc, body, `"degraded":true`,
			"comparesets_degraded_responses_total", obs.Labels{"reason": "stale_cache"}, nil)
	})

	t.Run("shed exact", func(t *testing.T) {
		// The worker's one admission slot is contended: each read is held
		// in the pipeline until another select waits in the admission
		// queue, so its exact shortlist sees overload and the worker
		// answers greedy, flagged optimal:false.
		svc := service.NewWithOptions(corpora(), testLogger(t), service.Options{MaxInflight: 1})
		cat, tgt := firstTarget(svc)
		body := fmt.Sprintf(`{"category":%q,"target":%q,"m":3,"lambda":1,"mu":1,"k":3,"method":"exact"}`, cat, tgt)
		queued := svc.Registry().Gauge("comparesets_admission_queue_depth", "", nil)
		waitFor := func(t *testing.T, what string, cond func() bool) {
			t.Helper()
			for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("timed out waiting for %s", what)
				}
			}
		}
		contend := func(t *testing.T, workerURL string, read func() (int, []byte, error)) (int, []byte, error) {
			release := make(chan struct{})
			fired := faultinject.Fires(faultinject.PointServiceSelect)
			faultinject.Arm(faultinject.PointServiceSelect, faultinject.Fault{
				Mode: faultinject.ModeLatency, Latency: 5 * time.Second, Release: release, Remaining: 1,
			})
			var status int
			var out []byte
			var err error
			done := make(chan struct{})
			go func() {
				defer close(done)
				status, out, err = read()
			}()
			waitFor(t, "the read to hold the admission slot", func() bool {
				return faultinject.Fires(faultinject.PointServiceSelect) > fired
			})
			// A select sent to the worker directly, so the edge cannot
			// answer it: it waits in the queue until the read is done. Its
			// own answer is not under test.
			base := queued.Value()
			waiter := make(chan struct{})
			go func() {
				defer close(waiter)
				post(client, workerURL+"/api/v1/select", selectBody(cat, tgt))
			}()
			waitFor(t, "a select to queue", func() bool { return queued.Value() > base })
			close(release)
			<-done
			<-waiter
			return status, out, err
		}
		readTwice(t, svc, body, `"optimal":false`,
			"comparesets_shortlist_fallback_total", obs.Labels{"reason": "overload"}, contend)
	})
}

// TestRouterEdgeStaleReadFuzz interleaves random review appends, updates,
// and removals through the router with routed reads of a few targets.
// Every routed answer must equal a direct worker answer taken right after
// it (modulo elapsed_ms); a read after a write to a member of its instance
// must miss the edge, so no pre-write bytes are served after the write's
// ack; and a read whose instance saw no write since its last read must hit.
func TestRouterEdgeStaleReadFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("real-corpus cluster test")
	}
	const seed, ops = 11, 320
	rng := rand.New(rand.NewSource(seed))
	c := newRealCluster(t, defaultCorpora(7))
	cat := c.svc.Categories()[0]
	corpus, _ := c.svc.Corpus(cat)
	targets := dataset.TargetIDs(corpus)[:6]
	const maxComparative = 3
	members := instanceMembers(t, corpus, targets, maxComparative)

	// Writes hit instance members and a few items outside every instance.
	var items []string
	in := map[string]bool{}
	for _, ids := range members {
		for _, id := range ids {
			if !in[id] {
				in[id] = true
				items = append(items, id)
			}
		}
	}
	slices.Sort(items)
	for _, id := range corpus.ItemIDs() {
		if !in[id] && len(items) < len(in)+4 {
			items = append(items, id)
		}
	}

	body := func(tgt string) string {
		return fmt.Sprintf(`{"category":%q,"target":%q,"m":2,"lambda":1,"mu":1,"max_comparative":%d}`, cat, tgt, maxComparative)
	}
	added := map[string][]string{} // item -> review IDs this test appended
	seen := map[string]bool{}
	dirty := map[string]bool{}
	writes, reads, reconciled := 0, 0, false
	for op := 0; op < ops; op++ {
		if rng.Float64() < 0.35 {
			item := items[rng.Intn(len(items))]
			base := itemReviewsURL(c.url, cat, item)
			own := added[item]
			switch r := rng.Float64(); {
			case len(own) > 0 && r < 0.3:
				i := rng.Intn(len(own))
				routedMutation(t, c.client, http.MethodDelete, base+"/"+url.PathEscape(own[i]), "")
				added[item] = append(own[:i:i], own[i+1:]...)
			case len(own) > 0 && r < 0.6:
				id := own[rng.Intn(len(own))]
				routedMutation(t, c.client, http.MethodPatch, base+"/"+url.PathEscape(id), fmt.Sprintf(
					`{"id":%q,"item_id":%q,"rating":%d,"text":"Revised: the screen is dim.","mentions":[{"aspect":1,"polarity":1,"score":0.6}]}`,
					id, item, 1+rng.Intn(5)))
			default:
				id := fmt.Sprintf("fuzz-%d", op)
				routedMutation(t, c.client, http.MethodPost, base, appendBody(id, item))
				added[item] = append(own, id)
			}
			writes++
			for _, tgt := range targets {
				// The first receipt reconciles the lineage, re-keying all.
				if !reconciled || slices.Contains(members[tgt], item) {
					dirty[tgt] = true
				}
			}
			reconciled = true
			continue
		}
		tgt := targets[rng.Intn(len(targets))]
		misses := c.counter(edgeMisses)
		c.selectRouted(t, body(tgt))
		missed := c.counter(edgeMisses) > misses
		switch {
		case (dirty[tgt] || !seen[tgt]) && !missed:
			t.Fatalf("op %d: read of %s after a write to its instance hit the edge (stale bytes)", op, tgt)
		case seen[tgt] && !dirty[tgt] && missed:
			t.Errorf("op %d: read of %s missed the edge with no write to its instance", op, tgt)
		}
		seen[tgt], dirty[tgt] = true, false
		reads++
	}
	if writes < 50 || reads < 150 {
		t.Errorf("fuzz mix too thin: %d writes, %d reads", writes, reads)
	}
	t.Logf("seed %d: %d writes, %d routed reads", seed, writes, reads)
}
