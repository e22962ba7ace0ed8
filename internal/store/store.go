// Package store implements the SAS store (§5.3): a log-structured object
// store for FOV videos and original segments, with frame data and metadata
// kept in separate append-only logs. Separating the metadata log from the
// data log decouples metadata layout from video encoding, as the paper
// argues, and makes both logs independently replayable.
package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
)

// span locates an object inside a log.
type span struct {
	off, len int64
}

// Store is an in-memory log-structured store. It is safe for concurrent
// use. Puts append; the index always points at the latest version of a key
// (older versions stay in the log; a WriteTo snapshot carries only the
// latest).
type Store struct {
	mu      sync.RWMutex
	dataLog []byte
	metaLog []byte
	data    map[string]span
	meta    map[string]span
	puts    int
}

// New returns an empty store.
func New() *Store {
	return &Store{data: make(map[string]span), meta: make(map[string]span)}
}

// Put appends an object and its metadata under a key. Re-putting a key
// appends a new version and repoints the index.
func (s *Store) Put(key string, data, meta []byte) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = span{off: int64(len(s.dataLog)), len: int64(len(data))}
	s.dataLog = append(s.dataLog, data...)
	s.meta[key] = span{off: int64(len(s.metaLog)), len: int64(len(meta))}
	s.metaLog = append(s.metaLog, meta...)
	s.puts++
	return nil
}

// Get returns the latest data and metadata for a key.
func (s *Store) Get(key string) (data, meta []byte, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, okD := s.data[key]
	m, okM := s.meta[key]
	if !okD || !okM {
		return nil, nil, false
	}
	data = append([]byte(nil), s.dataLog[d.off:d.off+d.len]...)
	meta = append([]byte(nil), s.metaLog[m.off:m.off+m.len]...)
	return data, meta, true
}

// DataBytes returns the data log size (including stale versions).
func (s *Store) DataBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.dataLog))
}

// magic identifies a serialized store snapshot.
var magic = [4]byte{'E', 'V', 'R', 'S'}

// WriteTo serializes the store (compacted view) to w: a record stream of
// (key, data, meta) triples, each length-prefixed.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var written int64
	n, err := w.Write(magic[:])
	written += int64(n)
	if err != nil {
		return written, err
	}
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	writeChunk := func(b []byte) error {
		var lenBuf [8]byte
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(b)))
		n, err := w.Write(lenBuf[:])
		written += int64(n)
		if err != nil {
			return err
		}
		n, err = w.Write(b)
		written += int64(n)
		return err
	}
	for _, k := range keys {
		d, m := s.data[k], s.meta[k]
		if err := writeChunk([]byte(k)); err != nil {
			return written, err
		}
		if err := writeChunk(s.dataLog[d.off : d.off+d.len]); err != nil {
			return written, err
		}
		if err := writeChunk(s.metaLog[m.off : m.off+m.len]); err != nil {
			return written, err
		}
	}
	return written, nil
}

const (
	// maxSnapshotChunk bounds a single (key, data, or meta) chunk in a
	// snapshot. The largest legitimate objects are encoded video segments,
	// orders of magnitude below this.
	maxSnapshotChunk = 1 << 30 // 1 GiB
	// snapshotReadStep is the incremental allocation granularity while
	// replaying an untrusted length prefix.
	snapshotReadStep = 1 << 20 // 1 MiB
)

// ReadFrom replays a snapshot produced by WriteTo into the store (existing
// keys are overwritten — replay is idempotent). A record is put only once
// its key, data and meta have all been read, so when ReadFrom fails the
// store holds exactly what it held before plus the records before the
// failing one. A store it loads without error writes a snapshot that
// ReadFrom accepts back into an equal store.
func (s *Store) ReadFrom(r io.Reader) (int64, error) {
	var read int64
	var hdr [4]byte
	n, err := io.ReadFull(r, hdr[:])
	read += int64(n)
	if err != nil {
		return read, fmt.Errorf("store: reading magic: %w", err)
	}
	if hdr != magic {
		return read, fmt.Errorf("store: bad magic %q", hdr)
	}
	readChunk := func() ([]byte, error) {
		var lenBuf [8]byte
		n, err := io.ReadFull(r, lenBuf[:])
		read += int64(n)
		if err != nil {
			return nil, err
		}
		l := binary.LittleEndian.Uint64(lenBuf[:])
		if l > maxSnapshotChunk {
			return nil, fmt.Errorf("store: implausible chunk length %d (cap %d)", l, maxSnapshotChunk)
		}
		// Grow the buffer only as bytes actually arrive: the length prefix
		// is untrusted input, and a tiny truncated snapshot claiming a
		// huge chunk must fail with a read error, not allocate the claim.
		var b []byte
		for uint64(len(b)) < l {
			step := l - uint64(len(b))
			if step > snapshotReadStep {
				step = snapshotReadStep
			}
			start := len(b)
			b = append(b, make([]byte, step)...)
			n, err = io.ReadFull(r, b[start:])
			read += int64(n)
			if err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return nil, err
			}
		}
		return b, nil
	}
	for {
		key, err := readChunk()
		if err == io.EOF {
			return read, nil
		}
		if err != nil {
			return read, fmt.Errorf("store: reading key: %w", err)
		}
		data, err := readChunk()
		if err != nil {
			return read, fmt.Errorf("store: reading data for %q: %w", key, err)
		}
		meta, err := readChunk()
		if err != nil {
			return read, fmt.Errorf("store: reading meta for %q: %w", key, err)
		}
		if err := s.Put(string(key), data, meta); err != nil {
			return read, err
		}
	}
}
