package experiments

import (
	"testing"

	"evr/internal/client"
	"evr/internal/headtrace"
	"evr/internal/sas"
	"evr/internal/scene"
)

// TestSASSegmentBytesMatchClient ties the byte sequence the QoE tables
// stream to the client model it re-implements: sasSegmentBytes repeats
// client.Simulate's S+H segment choice, per-frame hit check and resync
// fallback, so the two must fetch the same bytes for every user.
func TestSASSegmentBytesMatchClient(t *testing.T) {
	cfg := sas.DefaultConfig()
	sh := client.DefaultConfig(client.SH, client.OnlineStreaming)
	for _, v := range scene.EvalSet() {
		plan, err := sas.BuildPlan(v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 5; u++ {
			tr := headtrace.Generate(v, u)
			var sum int64
			for _, b := range sasSegmentBytes(plan, tr, cfg) {
				sum += b
			}
			r, err := client.Simulate(v, tr, plan, sh)
			if err != nil {
				t.Fatal(err)
			}
			if sum != r.StreamedBytes {
				t.Errorf("%s user %d: sasSegmentBytes sums to %d, client streams %d", v.Name, u, sum, r.StreamedBytes)
			}
		}
	}
}
