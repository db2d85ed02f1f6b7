package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comparesets/internal/datagen"
	"comparesets/internal/faultinject"
	"comparesets/internal/model"
	"comparesets/internal/service"
)

// elapsedRe zeroes the only nondeterministic bytes in a select response so
// two servers' answers can be compared byte-for-byte.
var elapsedRe = regexp.MustCompile(`"elapsed_ms":[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?`)

func normalizeElapsed(body []byte) string {
	return string(elapsedRe.ReplaceAll(body, []byte(`"elapsed_ms":0`)))
}

// newWorker synthesizes the default corpora (deterministic in the seed, so
// every worker and the reference hold identical state) and serves the full
// service handler plus the snapshot stream over loopback.
func newWorker(t *testing.T, seed int64) (*service.Server, *httptest.Server) {
	t.Helper()
	corpora := map[string]*model.Corpus{}
	for _, cfg := range datagen.DefaultConfigs(seed) {
		c, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		corpora[c.Category] = c
	}
	svc := service.NewWithOptions(corpora, testLogger(t), service.Options{})
	outer := http.NewServeMux()
	outer.Handle(SnapshotPathPrefix, SnapshotHandler(svc, testLogger(t)))
	outer.Handle("/", svc.Handler())
	return svc, httptest.NewServer(outer)
}

func post(client *http.Client, url, body string) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func selectBody(category, target string) string {
	return fmt.Sprintf(`{"category":%q,"target":%q,"m":3,"lambda":1,"mu":1,"timeout_ms":10000}`, category, target)
}

func appendBody(reviewID, item string) string {
	return fmt.Sprintf(`{"reviews":[{"id":%q,"item_id":%q,"reviewer":"chaos","rating":4,`+
		`"text":"Chaos-run review praising the battery.",`+
		`"mentions":[{"aspect":0,"polarity":0,"score":0.8}]}]}`, reviewID, item)
}

// TestClusterSurvivesReplicaKillMidLoad is the cross-process failure drill
// the distributed tier exists for: a router in front of three replicas,
// one replica killed abruptly mid-load (connections torn, listener gone),
// and the routing tier must mask it — ≥99% of selects succeed, every
// mutation survives on every remaining replica (fingerprint parity against
// a single-binary reference that applied the same writes), and post-chaos
// select responses are byte-identical to the reference's.
func TestClusterSurvivesReplicaKillMidLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica chaos run")
	}
	const seed = 7

	refSvc, refTS := newWorker(t, seed)
	defer refTS.Close()

	var workerTS [3]*httptest.Server
	for i := range workerTS {
		_, ts := newWorker(t, seed)
		workerTS[i] = ts
	}
	// Worker 0 dies mid-run; only the survivors get a graceful Close.
	defer workerTS[1].Close()
	defer workerTS[2].Close()

	tun := defaultTuning
	tun.healthInterval = 50 * time.Millisecond
	tun.breaker.ConsecutiveFailures = 2
	tun.breaker.Cooldown = 300 * time.Millisecond
	rt, err := newRouter(RouterOptions{
		Backends: []string{workerTS[0].URL, workerTS[1].URL, workerTS[2].URL},
		// Replicate everywhere: the strongest zero-mutation-loss check.
		Replication: 3,
		Logger:      testLogger(t),
	}, tun)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	routerTS := httptest.NewServer(rt.Handler())
	defer routerTS.Close()

	// Build the workload: every category's targets for selects, plus one
	// mutation per distinct item (distinct items make apply order across
	// categories commute, so the reference converges to the same state
	// whatever the interleaving).
	categories := refSvc.Categories()
	if len(categories) == 0 {
		t.Fatal("no categories loaded")
	}
	type sel struct{ category, target string }
	var selects []sel
	var mutations []struct{ category, item string }
	client := &http.Client{Timeout: 15 * time.Second}
	for _, cat := range categories {
		var ids []string
		if err := getJSON(client, routerTS.URL+"/api/v1/targets?category="+cat, &ids); err != nil {
			t.Fatalf("listing %s targets through the router: %v", cat, err)
		}
		for _, id := range ids {
			selects = append(selects, sel{cat, id})
		}
		c, _ := refSvc.Corpus(cat)
		items := c.ItemIDs()
		for i := 0; i < len(items) && i < 8; i++ {
			mutations = append(mutations, struct{ category, item string }{cat, items[i]})
		}
	}

	const totalRequests = 360
	killAt := int64(totalRequests / 3)
	var (
		fired     atomic.Int64
		okCount   atomic.Int64
		failCount atomic.Int64
		killOnce  sync.Once
		mutIdx    atomic.Int64
		mu        sync.Mutex
		mutated   []struct{ category, item string }
	)
	kill := func() {
		killOnce.Do(func() {
			t.Log("chaos: killing worker 0")
			// A killed process serves nothing more: no connection, not even
			// one accepted while the listener closes, may outlive its
			// current request and keep answering health probes.
			workerTS[0].Config.SetKeepAlivesEnabled(false)
			workerTS[0].Listener.Close()
			workerTS[0].CloseClientConnections()
		})
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				n := fired.Add(1)
				if n > totalRequests {
					return
				}
				if n == killAt {
					kill()
				}
				// Roughly every 12th request is a mutation while the
				// distinct-item list lasts.
				if n%12 == 0 {
					if mi := mutIdx.Add(1) - 1; int(mi) < len(mutations) {
						m := mutations[mi]
						url := fmt.Sprintf("/api/v1/corpora/%s/items/%s/reviews", m.category, m.item)
						body := appendBody(fmt.Sprintf("chaos-%d", mi), m.item)
						status, respBody, err := post(client, routerTS.URL+url, body)
						if err != nil || status != http.StatusOK {
							failCount.Add(1)
							t.Errorf("mutation %d failed: status %d err %v body %s", mi, status, err, respBody)
							continue
						}
						okCount.Add(1)
						// Mirror the accepted write onto the reference.
						if st, _, err := post(client, refTS.URL+url, body); err != nil || st != http.StatusOK {
							t.Errorf("reference apply of mutation %d failed: status %d err %v", mi, st, err)
						}
						mu.Lock()
						mutated = append(mutated, m)
						mu.Unlock()
						continue
					}
				}
				s := selects[int(n)%len(selects)]
				status, _, err := post(client, routerTS.URL+"/api/v1/select", selectBody(s.category, s.target))
				if err != nil || status != http.StatusOK {
					failCount.Add(1)
				} else {
					okCount.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	ok, fail := okCount.Load(), failCount.Load()
	total := ok + fail
	t.Logf("chaos load: %d requests, %d ok, %d failed, %d mutations", total, ok, fail, len(mutated))
	if len(mutated) == 0 {
		t.Fatal("workload applied no mutations")
	}
	if avail := float64(ok) / float64(total); avail < 0.99 {
		t.Fatalf("availability %.4f < 0.99 after replica kill (seed FAULTINJECT_SEED=%d)", avail, faultinject.CurrentSeed())
	}

	// Zero mutation loss: every surviving replica's corpus must fingerprint
	// identically to the reference that applied the same mutations — proven
	// through the snapshot protocol itself.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, cat := range categories {
		refC, _ := refSvc.Corpus(cat)
		want := refC.Fingerprint()
		for i := 1; i < 3; i++ {
			got, err := FetchSnapshot(ctx, client, workerTS[i].URL, cat, t.TempDir())
			if err != nil {
				t.Fatalf("snapshot of %q from surviving worker %d: %v", cat, i, err)
			}
			if got.Fingerprint() != want {
				t.Errorf("worker %d lost a mutation: %q fingerprint %016x, reference %016x",
					i, cat, got.Fingerprint(), want)
			}
		}
	}

	// Byte parity: post-chaos, the routed answer for every mutated item's
	// category and a spread of targets must match the single-binary
	// reference exactly (modulo elapsed_ms).
	for i, s := range selects {
		if i%5 != 0 {
			continue
		}
		body := selectBody(s.category, s.target)
		viaRouter, routerBytes, err := post(client, routerTS.URL+"/api/v1/select", body)
		if err != nil {
			t.Fatalf("parity select via router: %v", err)
		}
		viaRef, refBytes, err := post(client, refTS.URL+"/api/v1/select", body)
		if err != nil {
			t.Fatalf("parity select via reference: %v", err)
		}
		if viaRouter != viaRef {
			t.Fatalf("parity status mismatch for %s/%s: router %d, reference %d", s.category, s.target, viaRouter, viaRef)
		}
		if got, want := normalizeElapsed(routerBytes), normalizeElapsed(refBytes); got != want {
			t.Fatalf("response divergence for %s/%s:\nrouter:    %s\nreference: %s", s.category, s.target, got, want)
		}
	}

	// The router noticed the kill: worker 0 settles at unreachable. A probe
	// launched just before the final sweep can land a heartbeat late, so
	// give the watcher a few 50ms sweep cycles to converge.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if state := rt.health.State(workerTS[0].URL); state == HealthUnreachable {
			break
		} else if time.Now().After(deadline) {
			t.Errorf("killed worker health = %q, want unreachable (all states: %v)",
				state, rt.health.States())
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRouterMasksInjectedForwardFaults drives the injected-failure side of
// the chaos story: probabilistic router.forward errors must be absorbed by
// retries with at least 99% of requests still succeeding. The router gets a
// deep retry budget and a patient breaker so faults burn retries, not
// candidates; with maxRetries 3 a request fails only when four independent
// 15%-probability draws all fire (~5 in ten thousand). The workers name no
// instance, so the edge memoizes nothing and every request is forwarded and
// draws. Gated on FAULTINJECT so plain `go test ./...` stays fault-free.
func TestRouterMasksInjectedForwardFaults(t *testing.T) {
	if !faultinject.EnvEnabled() {
		t.Skip("set FAULTINJECT=1 to run chaos tests")
	}
	defer faultinject.Reset()

	workers := []*mockWorker{newMockWorker(t), newMockWorker(t), newMockWorker(t)}
	proxyEveryRead(workers)
	rt, ts, _ := newTestRouter(t, workers, func(o *tuning) {
		o.maxRetries = 3
		o.retryBudget = retryBudgetConfig{Tokens: 100, Ratio: 1}
		o.breaker = defaultTuning.breaker
		o.breaker.ConsecutiveFailures = 1000
	})

	faultinject.Seed(faultinject.CurrentSeed())
	faultinject.Arm(faultinject.PointRouterForward, faultinject.Fault{Mode: faultinject.ModeError, Prob: 0.15})
	defer faultinject.Disarm(faultinject.PointRouterForward)

	const n = 100
	failed := 0
	for i := 0; i < n; i++ {
		resp, body := postSelect(t, ts.URL, `{"category":"Cameras","target":"cam-1"}`)
		if resp.StatusCode != http.StatusOK {
			failed++
			t.Logf("request %d: status %d body %s", i, resp.StatusCode, body)
		}
	}
	if failed > 1 {
		t.Fatalf("%d/%d requests failed through injected faults (FAULTINJECT_SEED=%d)",
			failed, n, faultinject.CurrentSeed())
	}
	if fires := faultinject.Fires(faultinject.PointRouterForward); fires == 0 {
		t.Fatal("fault never fired — the run proved nothing")
	} else if got := counterValue(rt, "comparesets_router_retries_total"); got == 0 {
		t.Fatalf("%d faults fired but no retries recorded", fires)
	}
}

// TestSnapshotConnDropTearsStreamAndJoinRecovers arms the conndrop fault on
// the snapshot path: the first transfer is torn mid-stream (the joiner sees
// a short log and reports an incomplete snapshot), and Join's bounded retry
// then completes from the self-disarmed point — the full crash-torn
// transfer recovery loop, over real HTTP.
func TestSnapshotConnDropTearsStreamAndJoinRecovers(t *testing.T) {
	defer faultinject.Reset()
	svc, ts := newWorker(t, 3)
	defer ts.Close()
	categories := svc.Categories()
	cat := categories[0]

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	faultinject.Arm(faultinject.PointRouterSnapshot, faultinject.Fault{Mode: faultinject.ModeConnDrop, Remaining: 1})
	if _, err := FetchSnapshot(ctx, nil, ts.URL, cat, t.TempDir()); err == nil {
		t.Fatal("torn snapshot transfer reported success")
	}
	if fires := faultinject.Fires(faultinject.PointRouterSnapshot); fires != 1 {
		t.Fatalf("conndrop fires = %d, want 1", fires)
	}

	// Clean refetch after the bounded fault disarmed itself.
	c, err := FetchSnapshot(ctx, nil, ts.URL, cat, t.TempDir())
	if err != nil {
		t.Fatalf("clean refetch failed: %v", err)
	}
	want, _ := svc.Corpus(cat)
	if c.Fingerprint() != want.Fingerprint() {
		t.Fatalf("refetched corpus fingerprint %016x != source %016x", c.Fingerprint(), want.Fingerprint())
	}

	// Join retries internally: arm another one-shot tear and join everything.
	faultinject.Arm(faultinject.PointRouterSnapshot, faultinject.Fault{Mode: faultinject.ModeConnDrop, Remaining: 1})
	joined, err := Join(ctx, ts.URL, t.TempDir(), testLogger(t))
	if err != nil {
		t.Fatalf("join did not survive a single torn transfer: %v", err)
	}
	if len(joined) != len(categories) {
		t.Fatalf("joined %d categories, want %d", len(joined), len(categories))
	}
	for _, name := range categories {
		src, _ := svc.Corpus(name)
		if joined[name].Fingerprint() != src.Fingerprint() {
			t.Errorf("joined %q fingerprint mismatch", name)
		}
	}
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
