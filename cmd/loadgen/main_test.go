package main

import (
	"log"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"comparesets/internal/datagen"
	"comparesets/internal/model"
	"comparesets/internal/service"
)

func TestPercentile(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.5, 3}, {0.99, 5}, {1, 5}, {0.01, 1},
	}
	for _, c := range cases {
		if got := percentile(samples, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}

// TestLoadgenSmoke runs the generator end to end against an in-process
// worker: discovery, then a short mixed read/write stage.
func TestLoadgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a full in-process server")
	}
	corpora := map[string]*model.Corpus{}
	for _, cfg := range datagen.DefaultConfigs(1) {
		c, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		corpora[c.Category] = c
	}
	logger := log.New(testWriter{t}, "worker: ", 0)
	ts := httptest.NewServer(service.New(corpora, logger).Handler())
	defer ts.Close()

	targets, err := discoverTargets(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("no targets discovered")
	}
	run := runStage(ts.URL, targets, 40, 500*time.Millisecond, 0.2)
	if run.Sent == 0 || run.OK == 0 {
		t.Fatalf("stage did no work: %+v", run)
	}
	if run.Errors > 0 {
		t.Fatalf("stage saw %d errors: %+v", run.Errors, run)
	}
	if run.P99MS <= 0 || run.P50MS > run.P99MS {
		t.Fatalf("implausible percentiles: %+v", run)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
