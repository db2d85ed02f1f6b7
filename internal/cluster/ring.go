// Package cluster is the fault-tolerant distributed serving tier: a
// stdlib-HTTP routing layer in front of N worker replicas (cmd/server
// processes), turning the fast single binary into a horizontally scaled
// deployment that survives per-replica failure.
//
// The pieces:
//
//   - Ring (ring.go): consistent-hash placement of categories onto worker
//     backends with a configurable replication factor, so corpora shard
//     across processes and adding a backend moves only its arc of keys.
//   - Breaker (breaker.go): per-backend circuit breakers — closed, open,
//     half-open — tripped by consecutive failures or a windowed error rate,
//     so a sick backend stops absorbing traffic before it poisons tails.
//   - RetryBudget + backoff (retry.go): token-bucket retry budgets refilled
//     by successful work, jittered exponential backoff between attempts;
//     retries apply only to idempotent reads, never mutations.
//   - HealthWatcher (health.go): polls each backend's /readyz and steers
//     balancing away from overloaded or draining replicas before errors
//     appear — the PR 4 readiness states become the router's routing signal.
//   - Snapshot shipping (snapshot.go): GET /internal/v1/snapshot/{category}
//     streams a manifest plus CSLG log bytes; joining replicas replay them
//     through the store's torn-tail recovery and verify fingerprint parity.
//   - Router (router.go): the HTTP tier tying it together — health-steered
//     replica choice, one read attempt at a time with budgeted retries,
//     deadline propagation via timeout_ms minus elapsed, write fan-out to
//     every replica of a shard with per-replica epoch/generation
//     reconciliation.
//
// Fault injection points router.forward and router.snapshot (error, latency,
// and conndrop modes) make the whole tier chaos-testable in-process: see
// cluster_chaos_test.go and `make chaos-cluster`.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring places categories onto backends by consistent hashing with virtual
// nodes. A category's replica set is the first Replication distinct
// backends clockwise from its hash point, so adding or removing one backend
// remaps only the keys on its arcs. Ring is immutable after construction
// and safe for concurrent use.
type Ring struct {
	backends    []string
	replication int
	points      []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	backend int // index into backends
}

// NewRing builds a ring over the backend addresses with
// defaultTuning.vnodes points per backend; 128 keeps the max/min load
// spread under ~15% for small clusters while the ring stays tiny (N×128
// points). replication clamps to [1, len(backends)].
func NewRing(backends []string, replication int) (*Ring, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one backend")
	}
	seen := map[string]bool{}
	for _, b := range backends {
		if b == "" {
			return nil, fmt.Errorf("cluster: empty backend address")
		}
		if seen[b] {
			return nil, fmt.Errorf("cluster: duplicate backend %q", b)
		}
		seen[b] = true
	}
	vnodes := defaultTuning.vnodes
	if replication < 1 {
		replication = 1
	}
	if replication > len(backends) {
		replication = len(backends)
	}
	r := &Ring{
		backends:    append([]string(nil), backends...),
		replication: replication,
		points:      make([]ringPoint, 0, len(backends)*vnodes),
	}
	for i, b := range r.backends {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", b, v)), backend: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].backend < r.points[b].backend
	})
	return r, nil
}

// Backends returns the backend addresses the ring was built over, in
// construction order.
func (r *Ring) Backends() []string { return append([]string(nil), r.backends...) }

// Replication returns the effective replication factor.
func (r *Ring) Replication() int { return r.replication }

// Placement returns the category's replica set: the first Replication
// distinct backends clockwise from the category's hash point, in ring
// (preference) order. The first entry is the category's primary — the
// replica the router tries first when health does not dictate otherwise.
func (r *Ring) Placement(category string) []string {
	h := ringHash(category)
	i := sort.Search(len(r.points), func(k int) bool { return r.points[k].hash >= h })
	out := make([]string, 0, r.replication)
	seen := make([]bool, len(r.backends))
	for scanned := 0; scanned < len(r.points) && len(out) < r.replication; scanned++ {
		p := r.points[(i+scanned)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, r.backends[p.backend])
		}
	}
	return out
}

// Owns reports whether addr is in the category's replica set.
func (r *Ring) Owns(category, addr string) bool {
	for _, b := range r.Placement(category) {
		if b == addr {
			return true
		}
	}
	return false
}

// ringHash is FNV-64a with a splitmix64-style finalizer. Raw FNV leaves
// vnode labels that share long prefixes ("http://10.0.0.2:8080#…") poorly
// spread around the ring — backends ended up owning 3× or ⅓× their fair
// share of arc — and the avalanche pass fixes exactly that.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
