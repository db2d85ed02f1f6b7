package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path"
	"sync"
	"testing"
	"time"
)

func fakeTargets(n int) []target {
	out := make([]target, n)
	for i := range out {
		out[i] = target{category: fmt.Sprintf("c%d", i%3), item: fmt.Sprintf("item-%03d", i)}
	}
	return out
}

// TestSelfTest runs the generator's own contract checks for every
// workload, including a cold_select run long enough to need a second λ
// layer of keys.
func TestSelfTest(t *testing.T) {
	targets := fakeTargets(394)
	for _, spec := range workloads {
		for _, seconds := range []int{1, 20} {
			if err := selfTest(spec, 7, seconds, targets); err != nil {
				t.Errorf("%s, %ds: %v", spec.name, seconds, err)
			}
		}
	}
}

// TestWriteMixCycles checks that write_mix is 10% writes and that every
// review it appends it also removes, but for the last cycle the window may
// cut short (the benchmark finishes that one after the window).
func TestWriteMixCycles(t *testing.T) {
	spec, _ := findWorkload("write_mix")
	reqs, err := buildSchedule(spec, 3, 20, fakeTargets(394))
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	writes := 0
	for _, r := range reqs {
		switch r.kind {
		case opAppend:
			live[r.review] = true
		case opDelete:
			delete(live, r.review)
		}
		if r.kind != opSelect {
			writes++
		}
	}
	if writes*writeEvery != len(reqs) {
		t.Errorf("%d writes in %d requests", writes, len(reqs))
	}
	if len(live) > 1 {
		t.Errorf("%d reviews left appended, want at most the last cycle's", len(live))
	}
}

// TestZipfRanks checks the stratified draws follow the distribution: the
// hottest rank gets its share to within one draw, and ranks are in range.
func TestZipfRanks(t *testing.T) {
	const n, k = 10000, 394
	counts := make([]int, k)
	for _, r := range zipfRanks(rand.New(rand.NewSource(5)), n, k) {
		counts[r]++
	}
	var sum float64
	for r := 1; r <= k; r++ {
		sum += math.Pow(float64(r), -zipfS)
	}
	want := n / sum
	if got := float64(counts[0]); got < want-1 || got > want+1 {
		t.Errorf("rank 0 drawn %v times, want %.1f±1", got, want)
	}
}

// TestDrive runs write_mix's schedule against a stub whose appends are
// slower than the gap between writes: every update and remove must still
// reach the server only after its review's previous step was answered.
func TestDrive(t *testing.T) {
	var mu sync.Mutex
	step := map[string]opKind{} // review → last step the stub answered
	var violations []string
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var kind opKind
		var review string
		switch r.Method {
		case http.MethodPost:
			if r.URL.Path == "/api/v1/select" {
				fmt.Fprint(w, "{}")
				return
			}
			var body struct{ Reviews []struct{ ID string } }
			if err := json.NewDecoder(r.Body).Decode(&body); err != nil || len(body.Reviews) != 1 {
				http.Error(w, "bad append", http.StatusBadRequest)
				return
			}
			kind, review = opAppend, body.Reviews[0].ID
			time.Sleep(60 * time.Millisecond)
		case http.MethodPatch:
			kind, review = opPatch, path.Base(r.URL.Path)
		case http.MethodDelete:
			kind, review = opDelete, path.Base(r.URL.Path)
		}
		mu.Lock()
		if prev, ok := step[review]; (kind == opAppend && ok) || (kind != opAppend && (!ok || prev != kind-1)) {
			violations = append(violations, fmt.Sprintf("%s %s after %v", kind, review, prev))
		}
		step[review] = kind
		mu.Unlock()
		fmt.Fprint(w, "{}")
	}))
	defer stub.Close()

	spec, _ := findWorkload("write_mix")
	reqs, err := buildSchedule(spec, 1, 1, fakeTargets(394))
	if err != nil {
		t.Fatal(err)
	}
	wires := make([]wire, len(reqs))
	for i, r := range reqs {
		if wires[i], err = r.encode(); err != nil {
			t.Fatal(err)
		}
	}
	kept := newBodies()
	due := dueTimes(time.Now().Add(10*time.Millisecond), len(reqs), spec.rate)
	outs, gen, err := drive(stub.Client(), stub.URL, reqs, wires, due, 2, &tracer{},
		func(i int, body []byte) uint64 { return kept.add(reqs[i].key(), body) })
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if !o.ok {
			t.Errorf("request %d (%s): %v", i, reqs[i].kind, o.err)
		}
	}
	if len(violations) > 0 {
		t.Errorf("writes out of order: %v", violations)
	}
	if gen.queueWait == 0 || len(gen.cpu) < 2 || len(gen.slop) == 0 {
		t.Errorf("generator stats missing: queue wait %v, %d cpu samples, %d slop samples", gen.queueWait, len(gen.cpu), len(gen.slop))
	}
}
