package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// liveKeys lists the store's live keys.
func liveKeys(s *Store) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.data))
	for k := range s.data {
		out = append(out, k)
	}
	return out
}

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	if err := s.Put("a/0", []byte("data"), []byte("meta")); err != nil {
		t.Fatal(err)
	}
	d, m, ok := s.Get("a/0")
	if !ok || string(d) != "data" || string(m) != "meta" {
		t.Fatalf("Get = %q %q %v", d, m, ok)
	}
	if _, _, ok := s.Get("missing"); ok {
		t.Error("missing key found")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	if err := New().Put("", nil, nil); err == nil {
		t.Error("empty key accepted")
	}
}

func TestOverwriteKeepsLatest(t *testing.T) {
	s := New()
	s.Put("k", []byte("v1"), []byte("m1"))
	s.Put("k", []byte("v2"), []byte("m2"))
	d, m, _ := s.Get("k")
	if string(d) != "v2" || string(m) != "m2" {
		t.Errorf("got %q %q, want latest version", d, m)
	}
	// The log is append-only: both versions occupy space.
	if s.DataBytes() != 4 {
		t.Errorf("data log = %d bytes, want 4 (two versions)", s.DataBytes())
	}
}

func TestGetReturnsCopies(t *testing.T) {
	s := New()
	s.Put("k", []byte("abc"), []byte("xyz"))
	d, _, _ := s.Get("k")
	d[0] = 'Z'
	d2, _, _ := s.Get("k")
	if string(d2) != "abc" {
		t.Error("Get returned aliased storage")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(60))
	for i := 0; i < 20; i++ {
		data := make([]byte, rng.Intn(100))
		meta := make([]byte, rng.Intn(30))
		rng.Read(data)
		rng.Read(meta)
		s.Put(fmt.Sprintf("video/%d/fov/%d", i%3, i), data, meta)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if _, err := restored.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if len(liveKeys(restored)) != len(liveKeys(s)) {
		t.Fatalf("restored %d keys, want %d", len(liveKeys(restored)), len(liveKeys(s)))
	}
	for _, k := range liveKeys(s) {
		d1, m1, _ := s.Get(k)
		d2, m2, _ := restored.Get(k)
		if !bytes.Equal(d1, d2) || !bytes.Equal(m1, m2) {
			t.Fatalf("key %q differs after restore", k)
		}
	}
}

func TestReplayIdempotent(t *testing.T) {
	s := New()
	s.Put("a", []byte("1"), []byte("x"))
	s.Put("b", []byte("2"), []byte("y"))
	var buf bytes.Buffer
	s.WriteTo(&buf)
	snapshot := buf.Bytes()
	target := New()
	for i := 0; i < 3; i++ { // replaying the same log thrice changes nothing
		if _, err := target.ReadFrom(bytes.NewReader(snapshot)); err != nil {
			t.Fatal(err)
		}
	}
	if len(liveKeys(target)) != 2 {
		t.Fatalf("replayed store has %d keys", len(liveKeys(target)))
	}
	d, _, _ := target.Get("a")
	if string(d) != "1" {
		t.Error("replay corrupted value")
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := New().ReadFrom(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic accepted")
	}
	var buf bytes.Buffer
	s := New()
	s.Put("k", []byte("data"), []byte("m"))
	s.WriteTo(&buf)
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := New().ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("g%d/%d", g, i%10)
				s.Put(key, []byte{byte(i)}, []byte{byte(g)})
				s.Get(key)
				liveKeys(s)
			}
		}(g)
	}
	wg.Wait()
	if len(liveKeys(s)) != 80 {
		t.Errorf("expected 80 keys, got %d", len(liveKeys(s)))
	}
}

func TestSnapshotPropertyRoundTrip(t *testing.T) {
	prop := func(keys []string, payload []byte) bool {
		s := New()
		for i, k := range keys {
			if k == "" {
				continue
			}
			s.Put(k, payload, []byte{byte(i)})
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			return false
		}
		r := New()
		if _, err := r.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
			return false
		}
		if len(liveKeys(r)) != len(liveKeys(s)) {
			return false
		}
		for _, k := range liveKeys(s) {
			d1, _, _ := s.Get(k)
			d2, _, _ := r.Get(k)
			if !bytes.Equal(d1, d2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Error(err)
	}
}

// TestReadFromMaliciousLengthPrefix feeds snapshots whose length prefixes
// claim far more data than the input carries. Replay must fail fast with a
// bounded allocation — the regression here was a 12-byte snapshot forcing
// a multi-GiB make([]byte, l) before any data was read.
func TestReadFromMaliciousLengthPrefix(t *testing.T) {
	snapshot := func(claim uint64, payload []byte) []byte {
		var buf bytes.Buffer
		buf.Write(magic[:])
		var lenBuf [8]byte
		binary.LittleEndian.PutUint64(lenBuf[:], claim)
		buf.Write(lenBuf[:])
		buf.Write(payload)
		return buf.Bytes()
	}

	// Claim over the hard cap: rejected outright.
	if _, err := New().ReadFrom(bytes.NewReader(snapshot(1<<40, nil))); err == nil {
		t.Error("chunk length above cap accepted")
	}

	// Claim under the cap but with (almost) no payload behind it: must
	// error on truncation without allocating the 512 MiB claim. The
	// allocation bound is snapshotReadStep plus append's growth slack.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := New().ReadFrom(bytes.NewReader(snapshot(512<<20, []byte("tiny"))))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated oversized claim accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("replaying a truncated 512 MiB claim allocated %d bytes", grew)
	}

	// A legitimate snapshot still replays after the hardening.
	src := New()
	if err := src.Put("k", bytes.Repeat([]byte{7}, 3*int(snapshotReadStep)/2), []byte("m")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dst := New()
	if _, err := dst.ReadFrom(&buf); err != nil {
		t.Fatalf("round trip after hardening: %v", err)
	}
	d, _, ok := dst.Get("k")
	if !ok || len(d) != 3*int(snapshotReadStep)/2 {
		t.Fatalf("replayed data wrong: ok=%v len=%d", ok, len(d))
	}
}
