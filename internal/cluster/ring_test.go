package cluster

import (
	"fmt"
	"testing"
)

// testKeys returns k deterministic pseudo-keys shaped like the sha256
// hex strings experiments.Job.Key() produces.
func testKeys(k int) []string {
	keys := make([]string, k)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", uint64(i)*2654435761)
	}
	return keys
}

func ringOf(nodes ...string) *Ring {
	r := NewRing()
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

// TestRingPlacementGolden pins the placement function: the ring hashes
// with sha256 and is documented stable across processes and releases,
// so a coordinator restart (or a second coordinator) must agree with
// this table. If this test fails, routing changed and every worker's
// cache shard moves — treat that like a cache-key version bump.
func TestRingPlacementGolden(t *testing.T) {
	r := ringOf("w1", "w2", "w3", "w4")
	golden := map[string]string{
		"0000000000000000000000000000000000000000000000000000000000000000": "w3",
		"00000000000000000000000000000000000000000000000000000000009e3779": "w1",
		"3a5b000000000000000000000000000000000000000000000000000000000001": "w1",
		"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff": "w3",
		"deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef": "w1",
		"cafe0000cafe0000cafe0000cafe0000cafe0000cafe0000cafe0000cafe0000": "w4",
	}
	for key, want := range golden {
		if got := r.Pick(key); got != want {
			t.Errorf("Pick(%s..) = %q, want %q", key[:12], got, want)
		}
	}
}

// TestRingDeterministicAcrossInstances asserts two independently built
// rings (different insertion order) place every key identically.
func TestRingDeterministicAcrossInstances(t *testing.T) {
	a := ringOf("w1", "w2", "w3", "w4", "w5")
	b := ringOf("w5", "w3", "w1", "w4", "w2")
	for _, key := range testKeys(500) {
		if a.Pick(key) != b.Pick(key) {
			t.Fatalf("insertion order changed placement of %s", key)
		}
	}
}

// TestRingMovementBounded is the consistent-hashing contract,
// table-driven over 1–8 nodes: when a node joins an N-node ring, at
// most ~1/(N+1) of keys move (with slack for virtual-node variance),
// and every key that moves lands on the new node — no key migrates
// between survivors. Symmetrically for a leave.
func TestRingMovementBounded(t *testing.T) {
	keys := testKeys(4000)
	for n := 1; n <= 8; n++ {
		t.Run(fmt.Sprintf("join-%d-to-%d", n, n+1), func(t *testing.T) {
			var nodes []string
			for i := 1; i <= n; i++ {
				nodes = append(nodes, fmt.Sprintf("w%d", i))
			}
			before := ringOf(nodes...)
			placed := map[string]string{}
			for _, k := range keys {
				placed[k] = before.Pick(k)
			}

			joined := fmt.Sprintf("w%d", n+1)
			after := ringOf(nodes...)
			after.Add(joined)
			moved := 0
			for _, k := range keys {
				got := after.Pick(k)
				if got == placed[k] {
					continue
				}
				moved++
				if got != joined {
					t.Fatalf("key %s moved between survivors: %s -> %s", k[:12], placed[k], got)
				}
			}
			// Expected share is len(keys)/(n+1); allow 1.5x for
			// virtual-node variance at 128 replicas.
			bound := len(keys) * 3 / (2 * (n + 1))
			if moved > bound {
				t.Errorf("join moved %d/%d keys, bound %d (~1/%d + slack)", moved, len(keys), bound, n+1)
			}
			if moved == 0 {
				t.Errorf("join moved no keys; the new node owns nothing")
			}

			// Leaving restores the original placement exactly.
			after.Remove(joined)
			for _, k := range keys {
				if after.Pick(k) != placed[k] {
					t.Fatalf("leave did not restore placement of %s", k[:12])
				}
			}
		})
	}
}

// TestRingPickExcluding verifies the requeue primitive: excluding a
// key's owner re-places only that owner's keys, everyone else's
// placement is untouched, and excluding every node yields "".
func TestRingPickExcluding(t *testing.T) {
	r := ringOf("w1", "w2", "w3")
	dead := "w2"
	for _, k := range testKeys(1000) {
		home := r.Pick(k)
		got := r.PickExcluding(k, map[string]bool{dead: true})
		if home != dead {
			if got != home {
				t.Fatalf("excluding %s moved %s's key %s to %s", dead, home, k[:12], got)
			}
			continue
		}
		if got == dead || got == "" {
			t.Fatalf("excluded node still picked for %s: %q", k[:12], got)
		}
	}
	if got := r.PickExcluding("anything", map[string]bool{"w1": true, "w2": true, "w3": true}); got != "" {
		t.Fatalf("all-excluded pick = %q, want \"\"", got)
	}
	if got := NewRing().Pick("anything"); got != "" {
		t.Fatalf("empty ring pick = %q, want \"\"", got)
	}
}
