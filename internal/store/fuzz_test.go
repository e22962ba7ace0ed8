package store_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"evr/internal/scene"
	"evr/internal/server"
	"evr/internal/store"
)

// record is one (key, data, meta) triple of a snapshot.
type record struct {
	key        string
	data, meta []byte
}

// modelReplay is the reference reader: it parses a snapshot held in memory
// and returns the records before the first malformed one, and whether the
// whole input is a well-formed snapshot.
func modelReplay(b []byte) (recs []record, ok bool) {
	if len(b) < 4 || string(b[:4]) != "EVRS" {
		return nil, false
	}
	b = b[4:]
	for len(b) > 0 {
		var chunks [3][]byte
		for i := range chunks {
			if len(b) < 8 {
				return recs, false
			}
			l := binary.LittleEndian.Uint64(b)
			b = b[8:]
			if l > uint64(len(b)) {
				return recs, false
			}
			chunks[i], b = b[:l], b[l:]
		}
		if len(chunks[0]) == 0 {
			return recs, false
		}
		recs = append(recs, record{string(chunks[0]), chunks[1], chunks[2]})
	}
	return recs, true
}

// snapshot returns s.WriteTo's output.
func snapshot(t *testing.T, s *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ingestSnapshot is a WriteTo snapshot of a one-segment tiled ingest at a
// small geometry: every payload kind a real store holds, in a few kB, so
// the fuzzer minimizes what it finds quickly.
func ingestSnapshot(f *testing.F) []byte {
	v, _ := scene.ByName("RS")
	cfg := server.DefaultIngestConfig()
	cfg.FullW, cfg.FullH = 32, 16
	cfg.FOVW, cfg.FOVH = 16, 16
	cfg.MaxSegments = 1
	cfg.SAS.SegmentFrames, cfg.Codec.GOP = 4, 4
	cfg.Codec.SearchRange = 1
	cfg.Tiled = true
	st := store.New()
	if _, err := server.Ingest(v, cfg, st); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzStoreReadFrom is a differential fuzz of ReadFrom against modelReplay.
// For any input, ReadFrom fails exactly when the model finds a malformed
// record, and the store it leaves holds exactly the records the model read
// before that one (the latest version of a repeated key). A store loaded
// without error writes a snapshot that ReadFrom accepts back into an equal
// store.
func FuzzStoreReadFrom(f *testing.F) {
	snap := ingestSnapshot(f)
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Add(snap[:4])
	f.Add([]byte{})
	f.Add([]byte("EVRS\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, in []byte) {
		got := store.New()
		n, err := got.ReadFrom(bytes.NewReader(in))
		recs, ok := modelReplay(in)
		if (err == nil) != ok {
			t.Fatalf("ReadFrom error %v, model well-formed %v", err, ok)
		}
		if ok && n != int64(len(in)) {
			t.Fatalf("ReadFrom read %d of %d bytes", n, len(in))
		}
		want := store.New()
		for _, r := range recs {
			if err := want.Put(r.key, r.data, r.meta); err != nil {
				t.Fatal(err)
			}
		}
		gotSnap := snapshot(t, got)
		if !bytes.Equal(gotSnap, snapshot(t, want)) {
			t.Fatalf("store holds other records than the %d the model read (ReadFrom error %v)", len(recs), err)
		}
		if err != nil {
			return
		}
		back := store.New()
		if _, err := back.ReadFrom(bytes.NewReader(gotSnap)); err != nil {
			t.Fatalf("ReadFrom rejects WriteTo's own snapshot: %v", err)
		}
		if !bytes.Equal(snapshot(t, back), gotSnap) {
			t.Fatal("a snapshot read back is not an equal store")
		}
	})
}
