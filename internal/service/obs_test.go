package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"comparesets/internal/dataset"
	"comparesets/internal/model"
)

func TestMetricsExposition(t *testing.T) {
	s, ts := testServer(t)
	s.mu.RLock()
	targets := dataset.TargetIDs(s.corpora["Cellphone"])
	s.mu.RUnlock()

	// Drive one full select (with shortlist) so both the HTTP middleware and
	// the pipeline-stage timers have recorded observations.
	req := SelectRequest{
		Category: "Cellphone", Target: targets[0],
		M: 3, Lambda: 1, Mu: 0.1, K: 3, Method: "greedy",
	}
	if resp, body := post(t, ts.URL+"/api/v1/select", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("select: status %d body %s", resp.StatusCode, body)
	}

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		// Per-endpoint HTTP latency histogram + request counter.
		`comparesets_http_request_duration_seconds_bucket{endpoint="select",le="+Inf"}`,
		`comparesets_http_request_duration_seconds_count{endpoint="select"}`,
		`comparesets_http_requests_total{code="200",endpoint="select"}`,
		`# TYPE comparesets_http_request_duration_seconds histogram`,
		// Pipeline-stage timers recorded by the selection internals.
		`comparesets_pipeline_stage_duration_seconds_count{stage="feature_build"}`,
		`comparesets_pipeline_stage_duration_seconds_count{stage="nomp"}`,
		`comparesets_pipeline_stage_duration_seconds_count{stage="shortlist"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The expvar bridge and pprof index must be mounted on the same mux.
	if resp, _ := get(t, ts.URL+"/debug/vars"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/vars: status %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/: status %d", resp.StatusCode)
	}
}

// TestEncodeBytesCounterRisesOnColdSelect checks the encoder-bytes counter
// accounts for a cold select's response: the payload is encoded once, at
// fill time, so the counter must rise by at least the body served.
func TestEncodeBytesCounterRisesOnColdSelect(t *testing.T) {
	s, ts := testServer(t)
	s.mu.RLock()
	targets := dataset.TargetIDs(s.corpora["Cellphone"])
	s.mu.RUnlock()

	const series = "comparesets_encode_bytes_total"
	before := metricValue(t, ts, series)
	req := SelectRequest{Category: "Cellphone", Target: targets[0], M: 4, Lambda: 0.7, Mu: 0.3}
	resp, body := post(t, ts.URL+"/api/v1/select", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select: status %d body %s", resp.StatusCode, body)
	}
	if got := metricValue(t, ts, series) - before; got < float64(len(body)) {
		t.Errorf("%s rose by %v on a cold select, want >= %d (the response body)", series, got, len(body))
	}
}

// heavyInstanceRequest builds an inline instance big enough that its
// selection cannot finish within 1 ms: every review carries a distinct
// mention pattern so no columns collapse in the regression.
func heavyInstanceRequest() SelectRequest {
	aspects := make([]string, 20)
	for i := range aspects {
		aspects[i] = fmt.Sprintf("aspect%02d", i)
	}
	items := make([]*model.Item, 80)
	for i := range items {
		item := &model.Item{ID: fmt.Sprintf("p%02d", i), Title: fmt.Sprintf("Product %d", i)}
		for j := 0; j < 200; j++ {
			pol := model.Positive
			if (i+j)%2 == 1 {
				pol = model.Negative
			}
			item.Reviews = append(item.Reviews, &model.Review{
				ID:     fmt.Sprintf("p%02d-r%03d", i, j),
				Rating: 1 + (i+j)%5,
				Mentions: []model.Mention{
					{Aspect: j % 20, Polarity: pol, Score: 1},
					{Aspect: (j / 20) % 20, Polarity: model.Positive, Score: 1},
					{Aspect: (i + j) % 20, Polarity: model.Negative, Score: 1},
				},
			})
		}
		items[i] = item
	}
	return SelectRequest{
		Aspects: aspects, Items: items,
		Algorithm: "CompaReSetS", M: 5, Lambda: 1, Mu: 0.1,
	}
}

func TestSelectTimeoutMS(t *testing.T) {
	_, ts := testServer(t)
	req := heavyInstanceRequest()
	req.TimeoutMS = 1
	resp, body := post(t, ts.URL+"/api/v1/select", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (want 504), body %.200s", resp.StatusCode, body)
	}
	var envelope ErrorResponse
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("unmarshalling %s: %v", body, err)
	}
	if envelope.Error.Code != CodeDeadlineExceeded {
		t.Errorf("code = %q (want %q)", envelope.Error.Code, CodeDeadlineExceeded)
	}

	// The same request without a deadline succeeds, proving the 504 came
	// from the timeout rather than from the instance being invalid.
	req.TimeoutMS = 0
	resp, body = post(t, ts.URL+"/api/v1/select", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("without timeout: status %d body %.200s", resp.StatusCode, body)
	}
}
