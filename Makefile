# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test race cover bench bench-json bce-check chaos chaos-cluster fuzz quality experiments examples clean

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

cover:
	go test -cover ./...

bench:
	go test -bench=. -benchmem ./...

# Chaos run: the fault-injection and resilience suites under the race
# detector with injection enabled and a fresh random seed. The seed is
# printed up front and again on failure — rerun with
# FAULTINJECT_SEED=<seed> to reproduce a failing draw sequence exactly.
chaos:
	@seed=$${FAULTINJECT_SEED:-$$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')}; \
	echo "chaos: FAULTINJECT_SEED=$$seed"; \
	FAULTINJECT=1 FAULTINJECT_SEED=$$seed go test -race -count=1 \
		-run 'Fault|Chaos|Panic|Stale|Resilience|Recovery|Retries' \
		./internal/faultinject/... ./internal/store/... ./internal/core/... \
		./internal/featstore/... ./internal/servecache/... ./internal/service/... \
	|| { echo "chaos FAILED — reproduce with: FAULTINJECT_SEED=$$seed make chaos"; exit 1; }

# Cross-process chaos drill: 3 real workers + the router, probabilistic
# router.forward faults, and a kill -9 of one worker mid-load; fails unless
# client availability stays >= 99%. Prints FAULTINJECT_SEED for replay.
# The in-process equivalent (plus mutation-durability and byte-parity
# assertions) runs in every `go test ./internal/cluster/` as
# TestClusterSurvivesReplicaKillMidLoad.
chaos-cluster:
	sh scripts/chaos_cluster.sh

# Fuzz the store's crash-recovery scan, the mutation-log append path, the
# hand-rolled JSON encoders' byte parity with encoding/json, the
# router/worker select-key parity, the rounding apportionment invariants,
# the sparse rounder against the dense reference apportionment, and
# block-built regression templates against their dense designs (bounded;
# raise -fuzztime locally).
fuzz:
	go test -run '^$$' -fuzz FuzzStoreScan -fuzztime 30s ./internal/store/
	go test -run '^$$' -fuzz FuzzCSLGAppend -fuzztime 30s ./internal/store/
	go test -run '^$$' -fuzz FuzzEncodeParity -fuzztime 30s ./internal/service/
	go test -run '^$$' -fuzz FuzzReviewMarshalAppend -fuzztime 30s ./internal/model/
	go test -run '^$$' -fuzz FuzzSelectKeyParity -fuzztime 30s ./internal/cluster/
	go test -run '^$$' -fuzz FuzzApportion -fuzztime 30s ./internal/regress/
	go test -run '^$$' -fuzz FuzzSparseApportion -fuzztime 30s ./internal/regress/
	go test -run '^$$' -fuzz FuzzBlockDesign -fuzztime 30s ./internal/regress/

# Record the hot-path benchmarks into versioned JSON; commit the diff
# alongside performance changes. BENCH_core.json covers the selection
# pipeline (core, regress, linalg, store, service); BENCH_service.json
# isolates the serving path (cold vs warm cache vs coalesced);
# BENCH_simgraph.json covers the shortlist solvers (Exact/Greedy/HkS at
# n∈{16,32,64}, k∈{5,10} — 10x because HkS n=64 runs 64 exact solves/op);
# BENCH_mutate.json compares the incremental write path against the old
# whole-epoch flush (append-1-review vs AddCorpus+precompute at
# n∈{64,256}). The end-to-end
# serving numbers come from perfbench, gated against a parent commit by
# `go run ./cmd/benchpair <parent-ref>`.
bench-json:
	go run ./cmd/bench -out BENCH_core.json
	go run ./cmd/bench -out BENCH_service.json ./internal/service/
	go run ./cmd/bench -out BENCH_simgraph.json -benchtime 10x ./internal/simgraph/
	go run ./cmd/bench -out BENCH_mutate.json -bench 'Mutate' ./internal/service/

# Prove the compute kernels stay free of bounds checks: build the linalg
# package with the BCE diagnostic and fail if the compiler reports a bounds
# check inside kernels.go (gather.go keeps its data-dependent load check on
# purpose). GOARCH is pinned because BCE decisions are
# architecture-dependent.
bce-check:
	@out=$$(GOARCH=amd64 go build -gcflags='comparesets/internal/linalg=-d=ssa/check_bce/debug=1' ./internal/linalg/ 2>&1 | grep -E 'kernels\.go' || true); \
	if [ -n "$$out" ]; then \
		echo "bounds checks found in kernels:"; echo "$$out"; exit 1; \
	else echo "bce-check: kernels are bounds-check free"; fi

# Rewrite QUALITY.json, the committed answers of the fixed select workload
# that `go test ./internal/quality/` diffs against. Run it only when a
# change is meant to move selections or objectives, and say why in the
# commit.
quality:
	go run ./cmd/quality QUALITY.json

# Regenerate every table and figure (plus CSVs and SVG charts) into results/.
experiments:
	go run ./cmd/experiments -all -size medium -budget 2s -csv results -svg results

examples:
	go run ./examples/quickstart
	go run ./examples/cameras
	go run ./examples/shortlist
	go run ./examples/opinionschemes
	go run ./examples/explanations
	go run ./examples/batch

clean:
	rm -f test_output.txt bench_output.txt
