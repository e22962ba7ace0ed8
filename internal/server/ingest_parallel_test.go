package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"evr/internal/codec"
	"evr/internal/frame"
	"evr/internal/geom"
	"evr/internal/pt"
	"evr/internal/scene"
	"evr/internal/store"
)

// ingestWorkerCounts is the GOMAXPROCS sweep the ingest determinism tests
// run: the pool size follows GOMAXPROCS, so one worker against many.
var ingestWorkerCounts = []int{1, 4}

// TestIngestDeterministicAcrossWorkerCounts checks the parallel fan-out
// contract: the manifest (with the in-process FOV metadata) and every stored
// key — original segments, tiles at every rung, tile backfill, FOV videos
// and their metadata — are byte-identical whether ingest runs on one worker
// or many. Three tiled segments make the segment builds overlap at 4
// workers. Run with -race to check the segment/tile/cluster fan-out.
func TestIngestDeterministicAcrossWorkerCounts(t *testing.T) {
	v, _ := scene.ByName("RS")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := smallIngest()
	cfg.MaxSegments = 3
	cfg.Tiled = true

	var (
		firstMan  *Manifest
		firstSnap []byte
	)
	for _, procs := range ingestWorkerCounts {
		runtime.GOMAXPROCS(procs)
		st := store.New()
		man, err := Ingest(v, cfg, st)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(man.Segments) != cfg.MaxSegments {
			t.Fatalf("GOMAXPROCS=%d: %d segments, want %d", procs, len(man.Segments), cfg.MaxSegments)
		}
		kinds := map[Kind]int{}
		for _, seg := range man.Segments {
			refs := []Ref{{Video: v.Name, Kind: Orig, Seg: seg.Index}, {Video: v.Name, Kind: TileLow, Seg: seg.Index}}
			for _, cl := range seg.Clusters {
				refs = append(refs, Ref{Video: v.Name, Kind: FOV, Seg: seg.Index, A: cl.ID})
			}
			for tile, rungs := range seg.Tiles.TileBytes {
				for r := range rungs {
					refs = append(refs, Ref{Video: v.Name, Kind: Tile, Seg: seg.Index, A: tile, B: r})
				}
			}
			for _, ref := range refs {
				if _, _, ok := st.Get(ref.StoreKey()); !ok {
					t.Fatalf("GOMAXPROCS=%d: missing key %s", procs, ref.StoreKey())
				}
				kinds[ref.Kind]++
			}
		}
		for _, k := range []Kind{Orig, FOV, Tile, TileLow} {
			if kinds[k] == 0 {
				t.Fatalf("GOMAXPROCS=%d: the ingest stored no %v payload", procs, k)
			}
		}
		var snap bytes.Buffer
		if _, err := st.WriteTo(&snap); err != nil {
			t.Fatal(err)
		}
		if firstMan == nil {
			firstMan, firstSnap = man, snap.Bytes()
			continue
		}
		if !reflect.DeepEqual(man, firstMan) {
			t.Errorf("GOMAXPROCS=%d: manifest differs from the 1-worker ingest", procs)
		}
		if !bytes.Equal(snap.Bytes(), firstSnap) {
			t.Errorf("GOMAXPROCS=%d: stored keys or payloads differ from the 1-worker ingest", procs)
		}
	}
}

// TestIngestLUTByteIdentical pins the pose-repeat path of preRenderCluster:
// frames whose track repeats the previous pose render through that pose's
// exact mapping table, and that changes no stored byte. The oracle is the
// per-frame direct render — every cluster's FOV video is re-rendered here
// with pt.RenderParallelChecked from the stored poses, re-encoded, and
// compared with the stored payload — across worker counts, on an ingest
// whose tracks do contain repeats.
func TestIngestLUTByteIdentical(t *testing.T) {
	v, _ := scene.ByName("RS")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var firstJSON []byte
	for _, procs := range ingestWorkerCounts {
		runtime.GOMAXPROCS(procs)
		cfg := smallIngest()
		st := store.New()
		man, err := Ingest(v, cfg, st)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		mj, _ := json.Marshal(man)
		if firstJSON == nil {
			firstJSON = mj
		} else if string(mj) != string(firstJSON) {
			t.Errorf("GOMAXPROCS=%d: manifest differs from the 1-worker ingest", procs)
		}

		ptCfg := pt.Config{Projection: cfg.Projection, Filter: pt.Bilinear, Viewport: cfg.viewport()}
		raster := v.Raster(cfg.Projection, cfg.FullW, cfg.FullH)
		repeats := 0
		for _, seg := range man.Segments {
			full := renderSegmentFrames(raster, v.FPS, seg.Index*cfg.SAS.SegmentFrames, seg.Frames, 1)
			for _, cl := range seg.Clusters {
				direct := make([]*frame.Frame, len(cl.Meta))
				for f, m := range cl.Meta {
					if f > 0 && m == cl.Meta[f-1] {
						repeats++
					}
					direct[f], err = pt.RenderParallelChecked(ptCfg, full[f], geom.Orientation{Yaw: m.Yaw, Pitch: m.Pitch}, 1)
					if err != nil {
						t.Fatal(err)
					}
				}
				bits, err := codec.EncodeSequence(cfg.Codec, direct)
				if err != nil {
					t.Fatal(err)
				}
				wantMeta := MarshalFrameMeta(cl.Meta)
				key := Ref{Video: v.Name, Kind: FOV, Seg: seg.Index, A: cl.ID}.StoreKey()
				payload, meta, ok := st.Get(key)
				if !ok {
					t.Fatalf("GOMAXPROCS=%d: missing key %s", procs, key)
				}
				if string(payload) != string(segmentOf(t, bits)) || string(meta) != string(wantMeta) {
					t.Errorf("GOMAXPROCS=%d: stored %s differs from the per-frame direct render", procs, key)
				}
			}
		}
		if repeats == 0 {
			t.Fatalf("GOMAXPROCS=%d: no track repeats a pose, the table path never ran", procs)
		}
	}
}

func TestParallelForCoversAllItemsAndPropagatesError(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		hits := make([]int32, 100)
		err := parallelFor(len(hits), workers, func(i int) error {
			hits[i]++
			if i == 37 {
				return fmt.Errorf("boom at %d", i)
			}
			return nil
		})
		if err == nil {
			t.Errorf("workers=%d: error not propagated", workers)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, h)
			}
		}
	}
	if err := parallelFor(0, 4, func(int) error { return fmt.Errorf("never") }); err != nil {
		t.Errorf("empty range returned %v", err)
	}
}
