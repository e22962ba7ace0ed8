package loadgen

import (
	"testing"

	"evr/internal/delivery"
	"evr/internal/scene"
)

// TestZipfAssignDeterministicAndSkewed pins the popularity draw: stable
// per user, in range, and monotonically favoring low ranks.
func TestZipfAssignDeterministicAndSkewed(t *testing.T) {
	const n, users = 5, 4000
	counts := make([]int, n)
	for u := 0; u < users; u++ {
		i := zipfAssign(u, n, 1.1)
		if i != zipfAssign(u, n, 1.1) {
			t.Fatalf("user %d: draw not deterministic", u)
		}
		if i < 0 || i >= n {
			t.Fatalf("user %d: index %d out of range", u, i)
		}
		counts[i]++
	}
	for i := 1; i < n; i++ {
		if counts[i] > counts[i-1] {
			t.Errorf("rank %d more popular than rank %d: %v", i, i-1, counts)
		}
	}
	// Zipf(1.1) over 5 ranks gives the head ≈ 44% of the mass; a uniform
	// draw gives 20%. Anything over 35% proves the law is applied.
	if frac := float64(counts[0]) / users; frac < 0.35 {
		t.Errorf("head video drew %.1f%% of users, want Zipf-skewed (> 35%%)", 100*frac)
	}
}

// TestZipfAssignEdges pins the degenerate parameters.
func TestZipfAssignEdges(t *testing.T) {
	if got := zipfAssign(9, 1, 1.0); got != 0 {
		t.Errorf("n=1 draw = %d", got)
	}
	if got := zipfAssign(3, 0, 1.0); got != 0 {
		t.Errorf("n=0 draw = %d", got)
	}
}

// TestZipfClasses pins the Zipf population: one class per video that drew
// a user, sized by zipfAssign's split, each a copy of the template.
func TestZipfClasses(t *testing.T) {
	specs := scene.Catalog()[:3]
	tmpl := ClassSpec{Name: "overwritten", Delivery: delivery.ModeAuto.String(), UseHAR: true, CacheSegments: 2}
	classes := ZipfClasses(specs, 32, 1.1, tmpl)
	wantUsers := []int{14, 15, 3} // zipfAssign over users 0..31
	if len(classes) != len(wantUsers) {
		t.Fatalf("%d classes, want %d", len(classes), len(wantUsers))
	}
	total := 0
	for i, cs := range classes {
		total += cs.Users
		if cs.Users != wantUsers[i] || cs.Name != specs[i].Name || cs.Video != specs[i].Name || cs.Spec.Name != specs[i].Name {
			t.Errorf("class %d = %q/%q with %d users, want %s with %d", i, cs.Name, cs.Video, cs.Users, specs[i].Name, wantUsers[i])
		}
		if cs.Delivery != tmpl.Delivery || cs.UseHAR != tmpl.UseHAR || cs.CacheSegments != tmpl.CacheSegments {
			t.Errorf("class %d dropped the template profile: %+v", i, cs)
		}
	}
	if n, err := ValidateClasses(classes); err != nil || n != 32 || total != 32 {
		t.Errorf("population of %d (validated %d, %v), want 32", total, n, err)
	}
	// One user draws one video: the others get no class.
	if got := ZipfClasses(specs, 1, 1.1, ClassSpec{}); len(got) != 1 || got[0].Users != 1 {
		t.Errorf("1-user population = %+v, want one 1-user class", got)
	}
}

// TestClusterDeltaSkew pins the skew summary over shard deltas.
func TestClusterDeltaSkew(t *testing.T) {
	d := &ClusterDelta{Shards: []ShardDelta{
		{Name: "shard-0", Alive: true, Requests: 300},
		{Name: "shard-1", Alive: true, Requests: 100},
		{Name: "shard-2", Alive: false, Requests: 0}, // dead all pass: excluded
	}}
	if got := d.Skew(); got != 1.5 {
		t.Errorf("skew = %v, want 1.5 (300 over mean 200)", got)
	}
	if got := (&ClusterDelta{}).Skew(); got != 0 {
		t.Errorf("empty skew = %v", got)
	}
}
