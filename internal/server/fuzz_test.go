package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"evr/internal/codec"
)

// FuzzUnmarshalBitstream fuzzes the segment parser behind every original,
// FOV and backfill payload: any input must parse or error (never panic or
// OOM), and anything that parses must re-marshal to the identical bytes —
// the container has one canonical encoding per bitstream.
func FuzzUnmarshalBitstream(f *testing.F) {
	// Seed with a real round-trip payload so the fuzzer starts inside the
	// grammar, plus classic edge shapes and a payload in the framing that
	// carried a header per frame.
	seed := segmentOf(f, &codec.Bitstream{
		Header: codec.Header{W: 16, H: 8, Quality: 6, HalfPel: true},
		Frames: [][]byte{{1, 2, 3}, {4, 5}, {}},
		Types:  []codec.FrameType{codec.IFrame, codec.PFrame, codec.PFrame},
	})
	f.Add(seed)
	f.Add(seed[:5])
	f.Add(seed[:len(seed)-1])
	f.Add([]byte{})
	old, _ := hex.DecodeString(preSegmentOrig)
	f.Add(old)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalBitstream(data)
		if err != nil {
			return
		}
		re, err := codec.AppendSegment(nil, b)
		if err != nil {
			t.Fatalf("parsed bitstream does not marshal: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("round trip not byte-identical: %d in, %d out", len(data), len(re))
		}
	})
}

// FuzzUnmarshalFrameMeta fuzzes the FOVMeta decode the client's FOV check
// trusts: any payload and frame count must parse or error, never panic, and
// a payload that parses re-marshals to the same bytes — the check sees
// exactly the angles on the wire.
func FuzzUnmarshalFrameMeta(f *testing.F) {
	seed := MarshalFrameMeta([]FrameMeta{
		{Yaw: 0.5, Pitch: -0.25},
		{Yaw: math.Copysign(0, -1), Pitch: math.MaxFloat64},
		{Yaw: -math.Pi, Pitch: math.SmallestNonzeroFloat64},
	})
	f.Add(seed, 3)
	f.Add(seed, 2)
	f.Add(seed[:len(seed)-1], 3)
	f.Add([]byte{}, 0)
	f.Add([]byte{}, -1)
	f.Add(MarshalFrameMeta([]FrameMeta{{Yaw: math.NaN()}}), 1)
	f.Add(MarshalFrameMeta([]FrameMeta{{Pitch: math.Inf(-1)}}), 1)
	f.Add([]byte(`[{"yaw":0.5,"pitch":-0.25}]`), 1)

	f.Fuzz(func(t *testing.T, data []byte, frames int) {
		meta, err := UnmarshalFrameMeta(data, frames)
		if err != nil {
			return
		}
		if len(meta) != frames {
			t.Fatalf("parsed %d poses, asked for %d", len(meta), frames)
		}
		if re := MarshalFrameMeta(meta); !bytes.Equal(re, data) {
			t.Fatalf("re-marshaled metadata differs:\n in: %x\nout: %x", data, re)
		}
	})
}

// FuzzManifestJSON fuzzes the manifest decode path the client trusts: any
// JSON that decodes into a Manifest must re-encode, and the re-encoded
// form must be a fixpoint (decode → encode → decode is identity). This is
// the property the fetch layer relies on when it persists and replays
// manifests.
func FuzzManifestJSON(f *testing.F) {
	man := Manifest{
		Video: "RS", FPS: 30, FullW: 192, FullH: 96, FOVW: 48, FOVH: 48,
		FOVXDeg: 130, FOVYDeg: 130, SegmentFrames: 30,
		Segments: []SegmentInfo{{
			Index: 0, Frames: 30, OrigBytes: 1234,
			Clusters: []ClusterInfo{{ID: 0, Bytes: 567, Pose: FrameMeta{Yaw: 0.5, Pitch: -0.25}}},
		}},
		Report: IngestReport{DetectorInvocations: 3, PreRenderedFrames: 30},
	}
	seed, err := json.Marshal(man)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"video":"x","segments":null}`))
	f.Add([]byte(`{"segments":[{"clusters":[{"pose":{"yaw":1e308}}]}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"fps":-1,"segments":[{"index":-9,"frames":0,"clusters":[]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("decoded manifest does not re-encode: %v", err)
		}
		var m2 Manifest
		if err := json.Unmarshal(out, &m2); err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("manifest decode/encode not a fixpoint:\n in: %+v\nout: %+v", m, m2)
		}
	})
}
