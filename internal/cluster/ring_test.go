package cluster

import (
	"fmt"
	"testing"
)

// testKeys returns n distinct synthetic routing keys.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = segKey(fmt.Sprintf("VID%d", i%7), i)
	}
	return keys
}

// TestRingKeyStabilityUnderRemoval pins the consistent-hashing contract:
// removing one shard moves ONLY the keys that shard owned. Every other
// key keeps its owner across the rebuild.
func TestRingKeyStabilityUnderRemoval(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shards  []int
		removed int
	}{
		{"3-shards-drop-mid", []int{0, 1, 2}, 1},
		{"3-shards-drop-first", []int{0, 1, 2}, 0},
		{"5-shards-drop-last", []int{0, 1, 2, 3, 4}, 4},
		{"2-shards-drop-one", []int{0, 1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := buildRing(tc.shards, 64)
			var after []int
			for _, s := range tc.shards {
				if s != tc.removed {
					after = append(after, s)
				}
			}
			rebuilt := buildRing(after, 64)

			keys := testKeys(2000)
			moved, owned := 0, 0
			for _, k := range keys {
				was, now := before.lookup(k), rebuilt.lookup(k)
				if was == tc.removed {
					owned++
					if now == tc.removed {
						t.Fatalf("key %q still owned by removed shard %d", k, tc.removed)
					}
					continue
				}
				if was != now {
					moved++
				}
			}
			if moved != 0 {
				t.Errorf("%d keys not owned by shard %d changed owner on its removal", moved, tc.removed)
			}
			if owned == 0 {
				t.Fatalf("removed shard %d owned no keys — the test has no teeth", tc.removed)
			}
		})
	}
}

// TestRingReaddIsExactInverse pins the rebuild identity: removing a shard
// and adding it back yields exactly the original assignment (point
// positions depend only on (shard, vnode), never on ring history).
func TestRingReaddIsExactInverse(t *testing.T) {
	orig := buildRing([]int{0, 1, 2, 3}, 64)
	readded := buildRing([]int{0, 1, 2, 3}, 64)
	for _, k := range testKeys(2000) {
		if a, b := orig.lookup(k), readded.lookup(k); a != b {
			t.Fatalf("key %q: owner %d != %d after rebuild with identical membership", k, a, b)
		}
	}
}

// TestRingBalance bounds the virtual-node load split: with the default 64
// points per shard, no shard's key share strays far from the mean.
func TestRingBalance(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("%d-shards", n), func(t *testing.T) {
			shards := make([]int, n)
			for i := range shards {
				shards[i] = i
			}
			r := buildRing(shards, defaultVirtualNodes)

			counts := make([]int, n)
			const keys = 20000
			for i := 0; i < keys; i++ {
				counts[r.lookup(fmt.Sprintf("V%d/%d", i%13, i))]++
			}
			mean := float64(keys) / float64(n)
			for s, got := range counts {
				ratio := float64(got) / mean
				if ratio > 1.6 || ratio < 0.45 {
					t.Errorf("shard %d holds %.2f× the mean key share (%d of %d)", s, ratio, got, keys)
				}
			}
		})
	}
}

// TestRingEmptyAndSingle pins the degenerate topologies.
func TestRingEmptyAndSingle(t *testing.T) {
	empty := buildRing(nil, 64)
	if got := empty.lookup("V/0"); got != -1 {
		t.Errorf("empty ring lookup = %d, want -1", got)
	}
	if got := empty.shards(); len(got) != 0 {
		t.Errorf("empty ring shards = %v, want none", got)
	}

	solo := buildRing([]int{3}, 64)
	for _, k := range testKeys(100) {
		if got := solo.lookup(k); got != 3 {
			t.Fatalf("single-shard ring lookup(%q) = %d, want 3", k, got)
		}
	}
	if got := solo.shards(); len(got) != 1 || got[0] != 3 {
		t.Errorf("single ring shards = %v, want [3]", got)
	}
}

// TestRingOwnerSkipping pins the router's dead-shard walk: skipping the
// owner yields its ring successor for that key (the same shard a rebuilt
// ring without the owner would pick), and skipping everything yields -1.
func TestRingOwnerSkipping(t *testing.T) {
	r := buildRing([]int{0, 1, 2}, 64)
	for _, k := range testKeys(500) {
		owner := r.lookup(k)
		next := r.ownerSkipping(k, func(s int) bool { return s == owner })
		if next == owner || next < 0 {
			t.Fatalf("ownerSkipping(%q) = %d, owner %d — no successor found", k, next, owner)
		}
		// Successor agreement: the skip walk must land where a rebuild
		// without the owner lands, or edge purges would miss moved keys.
		var rest []int
		for s := 0; s < 3; s++ {
			if s != owner {
				rest = append(rest, s)
			}
		}
		if want := buildRing(rest, 64).lookup(k); next != want {
			t.Fatalf("ownerSkipping(%q) = %d, rebuilt ring says %d", k, next, want)
		}
	}
	if got := r.ownerSkipping("V/0", func(int) bool { return true }); got != -1 {
		t.Errorf("all-skipped ownerSkipping = %d, want -1", got)
	}
}
