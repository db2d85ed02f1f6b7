package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func testRand() *rand.Rand { return rand.New(rand.NewSource(42)) }

func testBackends(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

func TestRingRejectsBadConfigs(t *testing.T) {
	if _, err := NewRing(nil, 1); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 1); err == nil {
		t.Error("empty backend address accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 1); err == nil {
		t.Error("duplicate backend accepted")
	}
}

func TestRingReplicationClamps(t *testing.T) {
	r, err := NewRing(testBackends(3), 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Replication(); got != 3 {
		t.Errorf("replication clamped to %d, want 3", got)
	}
	r, err = NewRing(testBackends(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Replication(); got != 1 {
		t.Errorf("replication floored to %d, want 1", got)
	}
}

func TestRingPlacementDeterministicAndDistinct(t *testing.T) {
	backends := testBackends(5)
	r1, err := NewRing(backends, 3)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(backends, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		cat := fmt.Sprintf("Category-%d", i)
		p1, p2 := r1.Placement(cat), r2.Placement(cat)
		if len(p1) != 3 {
			t.Fatalf("placement size = %d, want 3", len(p1))
		}
		seen := map[string]bool{}
		for j, addr := range p1 {
			if addr != p2[j] {
				t.Fatalf("placement of %q not deterministic: %v vs %v", cat, p1, p2)
			}
			if seen[addr] {
				t.Fatalf("placement of %q repeats %s: %v", cat, addr, p1)
			}
			seen[addr] = true
			if !r1.Owns(cat, addr) {
				t.Fatalf("Owns(%q, %s) = false for a placed replica", cat, addr)
			}
		}
		if r1.Owns(cat, "http://nope:1") {
			t.Fatalf("Owns true for an unknown backend")
		}
	}
}

func TestRingDistributionIsRoughlyUniform(t *testing.T) {
	backends := testBackends(4)
	r, err := NewRing(backends, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[r.Placement(fmt.Sprintf("cat-%d", i))[0]]++
	}
	want := n / len(backends)
	for _, b := range backends {
		if c := counts[b]; c < want/2 || c > want*2 {
			t.Errorf("backend %s owns %d/%d primaries, want within [%d, %d]", b, c, n, want/2, want*2)
		}
	}
}

// TestRingRemovalMovesOnlyTheLostArc is the consistent-hashing property the
// ring exists for: dropping one backend must not reshuffle categories whose
// replica sets never touched it.
func TestRingRemovalMovesOnlyTheLostArc(t *testing.T) {
	all := testBackends(5)
	rAll, err := NewRing(all, 2)
	if err != nil {
		t.Fatal(err)
	}
	rLess, err := NewRing(all[:4], 2)
	if err != nil {
		t.Fatal(err)
	}
	lost := all[4]
	for i := 0; i < 200; i++ {
		cat := fmt.Sprintf("cat-%d", i)
		before := rAll.Placement(cat)
		touchesLost := false
		for _, b := range before {
			if b == lost {
				touchesLost = true
			}
		}
		after := rLess.Placement(cat)
		if touchesLost {
			continue // expected to change
		}
		for j := range before {
			if before[j] != after[j] {
				t.Fatalf("category %q moved (%v -> %v) though it never touched the removed backend", cat, before, after)
			}
		}
	}
}
