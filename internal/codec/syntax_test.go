package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"evr/internal/display"
	"evr/internal/frame"
	"evr/internal/projection"
	"evr/internal/scene"
)

// catalogFrames renders the first n frames of a catalog video.
func catalogFrames(t testing.TB, name string, w, h, n int) []*frame.Frame {
	t.Helper()
	v, ok := scene.ByName(name)
	if !ok {
		t.Fatalf("catalog has no %s video", name)
	}
	return v.RenderVideo(projection.ERP, w, h, n)
}

// rsFrames renders RS, the video every playback workload of the benchmark
// streams.
func rsFrames(t testing.TB, w, h, n int) []*frame.Frame {
	return catalogFrames(t, "RS", w, h, n)
}

// reconstructed returns f as an I-frame at the given quality decodes: a
// frame that, sent again, equals the reference and leaves a zero residual.
func reconstructed(t testing.TB, quality int, f *frame.Frame) *frame.Frame {
	t.Helper()
	bs, err := EncodeSequence(Config{GOP: 1, Quality: quality}, []*frame.Frame{f})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSequence(bs)
	if err != nil {
		t.Fatal(err)
	}
	return decoded[0]
}

// channelPatchwork returns base with every sample moved by 40, block by
// block, in the channels named by the block index's low three bits:
// against a reference equal to base and with no motion search, block k of
// a P-frame codes exactly pattern k%8 (and pattern 0 is a skip).
func channelPatchwork(base *frame.Frame) *frame.Frame {
	f := base.Clone()
	k := 0
	for by := 0; by < f.H; by += blockSize {
		for bx := 0; bx < f.W; bx += blockSize {
			for y := by; y < by+blockSize; y++ {
				for x := bx; x < bx+blockSize; x++ {
					for ch := 0; ch < 3; ch++ {
						if i := (y*f.W+x)*3 + ch; k&(1<<ch) == 0 {
							continue
						} else if f.Pix[i] < 200 {
							f.Pix[i] += 40
						} else {
							f.Pix[i] -= 40
						}
					}
				}
			}
			k++
		}
	}
	return f
}

type corpusCase struct {
	name   string
	cfg    Config
	frames []*frame.Frame
}

// differentialCorpus covers I and P frames, both optional coding tools,
// motion vectors that point across each frame border, the finest, default
// and coarsest quantizers, and every coded-block pattern.
func differentialCorpus(t testing.TB) []corpusCase {
	base := noisyGradient(48, 32, 40)
	// Content panning toward each corner drags border blocks' vectors
	// outside the frame on the two borders it comes from.
	var pans []*frame.Frame
	for _, d := range [][2]int{{0, 0}, {3, 2}, {0, 0}, {-3, -2}, {0, 0}, {2, -3}, {0, 0}, {-2, 3}} {
		pans = append(pans, shifted(base, d[0], d[1]))
	}
	var subPel []*frame.Frame
	for _, d := range [][2]float64{{0, 0}, {1.5, 0.5}, {0, 0}, {-1.5, -0.5}, {0, 0}, {0.5, -1.5}, {0, 0}, {-0.5, 1.5}} {
		subPel = append(subPel, subPelShift(base, d[0], d[1]))
	}
	still := reconstructed(t, 4, base)
	patch := []*frame.Frame{base, still, channelPatchwork(still), still}
	cases := []corpusCase{
		{"patchwork", Config{GOP: 8, Quality: 4, SearchRange: 0}, patch},
		{"rs", Config{GOP: 4, Quality: 6, SearchRange: 2}, rsFrames(t, 64, 32, 6)},
		{"rs/chroma+halfpel", Config{GOP: 6, Quality: 6, SearchRange: 2, ChromaCoding: true, HalfPel: true}, rsFrames(t, 64, 32, 6)},
	}
	for _, q := range []int{1, 6, 64} {
		for _, tools := range []struct{ chroma, halfPel bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			cfg := Config{GOP: 8, Quality: q, SearchRange: 4, ChromaCoding: tools.chroma, HalfPel: tools.halfPel}
			name := fmt.Sprintf("q%d/chroma=%v/halfpel=%v", q, tools.chroma, tools.halfPel)
			cases = append(cases, corpusCase{"pan/" + name, cfg, pans}, corpusCase{"subpel/" + name, cfg, subPel})
		}
	}
	return cases
}

// TestMatchesReferenceCodec is the byte-identity promise of the block
// kernels: over the corpus the production encoder emits exactly the
// reference encoder's bytes, and the production decoder reconstructs
// exactly the reference (dense) decoder's pixels.
func TestMatchesReferenceCodec(t *testing.T) {
	var total refStats
	for _, tc := range differentialCorpus(t) {
		bs, err := EncodeSequence(tc.cfg, tc.frames)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, want := range refEncodeSequence(tc.cfg, tc.frames) {
			if !bytes.Equal(bs.Frames[i], want) {
				t.Errorf("%s: frame %d (%c): encoder emitted %d bytes that differ from the reference encoder's %d",
					tc.name, i, bs.Types[i], len(bs.Frames[i]), len(want))
			}
		}
		got, err := DecodeSequence(bs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, stats, err := refDecodeSequence(bs)
		if err != nil {
			t.Fatalf("%s: reference decoder: %v", tc.name, err)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Errorf("%s: frame %d (%c): decoded pixels differ from the reference decoder's", tc.name, i, bs.Types[i])
			}
		}
		total.add(stats)
	}
	// The corpus must actually reach what it claims to cover.
	if total.skips == 0 || total.skips == total.blocks {
		t.Errorf("corpus has %d skips in %d P-blocks, want some of each", total.skips, total.blocks)
	}
	for p, n := range total.cbp {
		if n == 0 {
			t.Errorf("corpus never codes block pattern %03b", p)
		}
	}
	if total.left == 0 || total.right == 0 || total.top == 0 || total.bottom == 0 {
		t.Errorf("corpus vectors cross borders left/right/top/bottom %d/%d/%d/%d times, want all > 0",
			total.left, total.right, total.top, total.bottom)
	}
}

// TestDecodedFramesPinnedAcrossFormatChange pins FNV-1a checksums of one
// small RS segment's decoded frames, recorded at the commit before the
// skip/CBP syntax: the format change moved bytes on the wire, not pixels.
func TestDecodedFramesPinnedAcrossFormatChange(t *testing.T) {
	frames := rsFrames(t, 128, 64, 10)
	for _, tc := range []struct {
		cfg  Config
		want [10]uint64
	}{
		{Config{GOP: 10, Quality: 6, SearchRange: 2}, [10]uint64{
			0x418b18f922d41322, 0x7d0058142e955a64, 0x642be70bcf6c8dff, 0xa5474ac686f8f248, 0x8def38b03012f731,
			0x633471e489dd4848, 0x012d46950c28027d, 0xe1044f68d141c2d4, 0x88306d430602d2e9, 0x7fdebd9793565755}},
		{Config{GOP: 10, Quality: 6, SearchRange: 2, ChromaCoding: true, HalfPel: true}, [10]uint64{
			0x12df5c50004186cd, 0x8d62a6c0b767b1ae, 0xef45adf76d1ec789, 0xcd3071ced741a098, 0xf586d2c372d936c4,
			0x6eeb132261461bd6, 0xdd406395c313dcd0, 0xf4094d18ab807c82, 0x070298c031855b61, 0xe130f5b113ddacda}},
	} {
		bs, err := EncodeSequence(tc.cfg, frames)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeSequence(bs)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range decoded {
			h := fnv.New64a()
			h.Write(f.Pix)
			if got := h.Sum64(); got != tc.want[i] {
				t.Errorf("%+v: decoded frame %d checksum %#016x, want %#016x", tc.cfg, i, got, tc.want[i])
			}
		}
	}
}

// benchGeometrySequences are the codec inputs at the geometries the
// benchmark streams (ingest settings: GOP 30, search range 2): an RS
// segment at the playback workloads' 320×160 and quality 6, a 128² sequence
// (the size of vod_sas's FOV frames), one 80² tile of the 4×2 grid at rung
// 2's quality 24, and tiled_view's 80×40 backfill at the same quality.
func benchGeometrySequences(t testing.TB) []corpusCase {
	full := rsFrames(t, 320, 160, 30)
	tile := make([]*frame.Frame, len(full))
	low := make([]*frame.Frame, len(full))
	down, err := display.NewScaler(80, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range full {
		tile[i] = frame.New(80, 80)
		for y := 0; y < 80; y++ {
			copy(tile[i].Pix[y*80*3:(y+1)*80*3], f.Pix[(y*320+80)*3:(y*320+160)*3])
		}
		if low[i], err = down.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	return []corpusCase{
		{"RS 320×160 q6", Config{GOP: 30, Quality: 6, SearchRange: 2}, full},
		{"RS 128×128 q6", Config{GOP: 30, Quality: 6, SearchRange: 2}, rsFrames(t, 128, 128, 30)},
		{"tile 1 of 4×2, 80×80 q24", Config{GOP: 30, Quality: 24, SearchRange: 2}, tile},
		{"backfill 80×40 q24", Config{GOP: 30, Quality: 24, SearchRange: 2}, low},
	}
}

// TestDecodedSequencesPinnedAtBenchGeometry pins one FNV-1a digest over
// every decoded frame of each benchGeometrySequences segment, recorded
// before the context-adaptive entropy code: the entropy layer moves bytes
// on the wire, never a decoded pixel.
func TestDecodedSequencesPinnedAtBenchGeometry(t *testing.T) {
	want := map[string]uint64{
		"RS 320×160 q6":            0x25d70bd881d5fb57,
		"RS 128×128 q6":            0xbe59756138059bc9,
		"tile 1 of 4×2, 80×80 q24": 0xdb38663dc2d54bc1,
		"backfill 80×40 q24":       0xa8ce4d6c65b263a6,
	}
	for _, tc := range benchGeometrySequences(t) {
		bs, err := EncodeSequence(tc.cfg, tc.frames)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeSequence(bs)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, f := range decoded {
			h.Write(f.Pix)
		}
		if got := h.Sum64(); got != want[tc.name] {
			t.Errorf("%s: decoded frames digest %#016x, want %#016x", tc.name, got, want[tc.name])
		}
	}
}

// TestSkipShareOnWorkloadVideos measures the property the byte saving
// depends on, on each video the benchmark's workloads stream at their
// resolution and ingest codec settings (playback: RS at 320×160;
// serve_zipf: three videos at 128×64): most P-blocks are skips and few
// block-channels carry a coefficient.
func TestSkipShareOnWorkloadVideos(t *testing.T) {
	if testing.Short() {
		t.Skip("renders four 30-frame segments")
	}
	for _, tc := range []struct {
		video string
		w, h  int
	}{{"RS", 320, 160}, {"RS", 128, 64}, {"Paris", 128, 64}, {"Timelapse", 128, 64}} {
		bs, err := EncodeSequence(Config{GOP: 30, Quality: 6, SearchRange: 2}, catalogFrames(t, tc.video, tc.w, tc.h, 30))
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := refDecodeSequence(bs)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s %d×%d: %d P-blocks, skips %.1f %%, block-channels without a coefficient %.1f %%, segment %d B",
			tc.video, tc.w, tc.h, stats.blocks, 100*stats.skipShare(), 100*stats.emptyChannelShare(), bs.TotalBytes())
		if stats.skipShare() < 0.5 || stats.emptyChannelShare() < 0.8 {
			t.Errorf("%s %d×%d: skip share %.3f / empty-channel share %.3f, want ≥ 0.5 / ≥ 0.8",
				tc.video, tc.w, tc.h, stats.skipShare(), stats.emptyChannelShare())
		}
	}
}

func TestSkipOnlyForZeroVectorAndZeroResidual(t *testing.T) {
	pFrame := func(cfg Config, a, b *frame.Frame) ([]byte, refStats) {
		t.Helper()
		bs, err := EncodeSequence(cfg, []*frame.Frame{a, b})
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := refDecodeSequence(bs)
		if err != nil {
			t.Fatal(err)
		}
		return bs.Frames[1], stats
	}
	textured := reconstructed(t, 4, noisyGradient(32, 16, 41))
	blocks := (32 / blockSize) * (16 / blockSize)

	// Textured content identical to the reference: the zero vector wins
	// outright and the residual is zero, so the body is eight skip bins,
	// which fit one byte.
	data, stats := pFrame(Config{GOP: 2, Quality: 4, SearchRange: 2}, textured, textured)
	if stats.skips != blocks {
		t.Errorf("static frame: %d of %d blocks skipped", stats.skips, blocks)
	}
	if len(data) != 1 {
		t.Errorf("static frame body = %x, want one byte", data)
	}

	// Unchanged flat content: every candidate ties at SAD 0 and the search
	// keeps the first, (−2, −2). Zero residual, nonzero vector: not a skip.
	flat := frame.New(32, 16)
	for i := 0; i < len(flat.Pix); i += 3 {
		flat.Pix[i], flat.Pix[i+1], flat.Pix[i+2] = 90, 90, 90
	}
	_, stats = pFrame(Config{GOP: 2, Quality: 4, SearchRange: 2}, flat, flat)
	if stats.skips != 0 || stats.cbp[0] != blocks {
		t.Errorf("flat frame: %d skips, %d vector-only blocks, want 0 and %d", stats.skips, stats.cbp[0], blocks)
	}

	// Zero vector, nonzero residual: not a skip either, except block 0
	// whose pattern is empty.
	_, stats = pFrame(Config{GOP: 2, Quality: 4, SearchRange: 0}, textured, channelPatchwork(textured))
	if stats.skips != 1 || stats.cbp[0] != 0 {
		t.Errorf("patchwork frame: %d skips and %d vector-only blocks, want 1 and 0", stats.skips, stats.cbp[0])
	}
}

func TestTruncatedInterSyntaxErrors(t *testing.T) {
	key, err := EncodeSequence(Config{GOP: 2, Quality: 4}, []*frame.Frame{noisyGradient(16, 8, 42)})
	if err != nil {
		t.Fatal(err)
	}
	// decode decodes a frame of type ft and body data after the I-frame key
	// with a fresh decoder and with the reference decoder, which must agree
	// on whether it fails.
	decode := func(ft FrameType, data []byte) (*frame.Frame, error) {
		t.Helper()
		bs := &Bitstream{Header: key.Header, Frames: [][]byte{key.Frames[0], data}, Types: []FrameType{IFrame, ft}}
		dec, ref := NewDecoder(), &refDecoder{}
		if _, err := dec.Decode(bs, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.decode(bs, 0); err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(bs, 1)
		if _, refErr := ref.decode(bs, 1); (err == nil) != (refErr == nil) {
			t.Errorf("decoder: %v, reference decoder: %v", err, refErr)
		}
		return got, err
	}
	// craft codes a two-block 16×8 body with the encoder's syntax: blocks
	// writes its bins.
	craft := func(blocks func(e *rangeEncoder, s *blockSyntax)) []byte {
		var e rangeEncoder
		var s blockSyntax
		e.reset()
		s.startFrame(2)
		blocks(&e, &s)
		return append([]byte(nil), e.bytes()...)
	}
	skip := func(e *rangeEncoder, s *blockSyntax, col int) {
		s.startBlock(col, 0)
		e.encode(s.skipContext(), 1)
		s.endBlock(neighbour{skip: true})
	}

	// Both blocks skipped: the reference again.
	allSkip := craft(func(e *rangeEncoder, s *blockSyntax) { skip(e, s, 0); skip(e, s, 1) })
	want, err := NewDecoder().Decode(key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decode(PFrame, allSkip); err != nil {
		t.Fatalf("all-skip frame: %v", err)
	} else if !got.Equal(want) {
		t.Error("all-skip frame is not a copy of the reference")
	}

	// The same bins with a byte appended end before the body does, and
	// without their last byte run past the slack.
	if _, err := decode(PFrame, append(append([]byte(nil), allSkip...), 0)); !errors.Is(err, errBitstream) {
		t.Errorf("body with a trailing byte: err = %v, want errBitstream", err)
	}
	long := craft(func(e *rangeEncoder, s *blockSyntax) {
		// A coded first block whose vector and list take a few bytes.
		s.startBlock(0, 0)
		e.encode(s.skipContext(), 0)
		s.writeMotion(e, 0, 1)
		s.writeMotion(e, 1, -1)
		for ch := 0; ch < 3; ch++ {
			e.encode(s.cbpContext(1, ch), b2u(ch == 0))
		}
		var q [blockLen]int32
		for i := range q {
			q[i] = int32(i%5 - 2)
		}
		writeList(e, s.lists(true, 0), &q)
		s.endBlock(neighbour{mvx: 1, mvy: -1})
		skip(e, s, 1)
	})
	if _, err := decode(PFrame, long); err != nil {
		t.Fatalf("coded block: %v", err)
	}
	if _, err := decode(PFrame, long[:len(long)-1]); !errors.Is(err, errBitstream) {
		t.Errorf("body cut by a byte: err = %v, want errBitstream", err)
	}

	// A vector the decoder refuses: 129 pixels from a (0, 0) predictor.
	far := craft(func(e *rangeEncoder, s *blockSyntax) {
		s.startBlock(0, 0)
		e.encode(s.skipContext(), 0)
		s.writeMotion(e, 0, maxMotion+1)
		s.writeMotion(e, 1, 0)
		for ch := 0; ch < 3; ch++ {
			e.encode(s.cbpContext(0, ch), 0)
		}
		s.endBlock(neighbour{mvx: maxMotion + 1})
		skip(e, s, 1)
	})
	if _, err := decode(PFrame, far); !errors.Is(err, errBitstream) {
		t.Errorf("vector component %d: err = %v, want errBitstream", maxMotion+1, err)
	}

	// A level suffix whose exp-Golomb prefix runs past maxSuffixBits.
	runaway := craft(func(e *rangeEncoder, s *blockSyntax) {
		s.startBlock(0, 0)
		e.encode(s.skipContext(), 0)
		s.writeMotion(e, 0, 0)
		s.writeMotion(e, 1, 0)
		for ch := 0; ch < 3; ch++ {
			e.encode(s.cbpContext(1, ch), b2u(ch == 0))
		}
		c := s.lists(true, 0)
		e.encode(&c.sig[0], 1)
		e.encode(&c.last[0], 1)
		e.encode(&c.gt1[1], 1)
		for i := 1; i < levelPrefix; i++ {
			e.encode(&c.gtN[0], 1)
		}
		e.bypass(1<<(maxSuffixBits+1)-1, maxSuffixBits+1)
		e.bypass(0, 24)
	})
	if _, err := decode(PFrame, runaway); !errors.Is(err, errBitstream) {
		t.Errorf("runaway level suffix: err = %v, want errBitstream", err)
	}

	// A list significant at every position has no last flag at all: the
	// 64th level is implied. Both decoders read 64 levels.
	full := craft(func(e *rangeEncoder, s *blockSyntax) {
		s.startBlock(0, 0)
		e.encode(s.skipContext(), 0)
		s.writeMotion(e, 0, 0)
		s.writeMotion(e, 1, 0)
		for ch := 0; ch < 3; ch++ {
			e.encode(s.cbpContext(0, ch), b2u(ch == 2))
		}
		var q [blockLen]int32
		for i := range q {
			q[i] = int32(1 - 2*(i%2))
		}
		writeList(e, s.lists(true, 2), &q)
		s.endBlock(neighbour{})
		skip(e, s, 1)
	})
	if _, err := decode(PFrame, full); err != nil {
		t.Errorf("list of 64 levels: %v", err)
	}

	// In an I-frame a channel may carry no list: six clear coded flags are
	// a mid-gray frame.
	gray := craft(func(e *rangeEncoder, s *blockSyntax) {
		for col := 0; col < 2; col++ {
			s.startBlock(col, 0)
			var n neighbour
			for ch := 0; ch < 3; ch++ {
				e.encode(s.codedContext(ch, &n), 0)
			}
			s.endBlock(n)
		}
	})
	if got, err := decode(IFrame, gray); err != nil {
		t.Errorf("I-frame of six clear coded flags: %v", err)
	} else if got.Pix[0] != 128 || got.Pix[len(got.Pix)-1] != 128 {
		t.Errorf("I-frame of six clear coded flags decodes to %d…%d, want mid-gray", got.Pix[0], got.Pix[len(got.Pix)-1])
	}
}

// Frames of RS at 16×8 (GOP 2, quality 6, search range 1) as two earlier
// formats encoded them, each behind its 7-byte frame header (type, W, H,
// quality, flags): before the skip/CBP block syntax (flag bit 2), and
// before the last-flag coefficient lists (bit 3).
const (
	preCBPIFrame  = "4900100008060085c4941331280830b9502a62501061d05ec4a020c2e24a099894041854a40eb1ac4a020c3740858d62501040"
	preCBPPFrame  = "50001000080600c082041020e041b0208104"
	preLastIFrame = "4900100008060485c4941331280830b9502a62501061d05ec4a020c2e24a099894041854a40eb1ac4a020c3740858d62501040"
	preLastPFrame = "50001000080604b56041"
)

// The same two frames in the last-flag syntax's exp-Golomb words, as the
// stores written before the segment container held them: a bare segment
// (W, H, count as little-endian u16, u16, u32, then type u8, length u32 and
// a headed frame per frame) and an "EVT1" tile (tile 5 of a 4×2 grid, rung
// 1; big-endian W, H, count, then type, length and a headed frame per
// frame) — and as the segment container held them before the range-coded
// bodies (flag bit 4).
const (
	preSegmentOrig = "1000080002000000492c0000004900100008060c85c24a04cc256171501530958740bd84ac2e125026612b0a8a407586b09586d4042c3584a850090000005000100008060cb570"
	preSegmentTile = "4556543104020005010010000800000002490000002c4900100008060c85c24a04cc256171501530958740bd84ac2e125026612b0a8a407586b09586d4042c3584a850000000095000100008060cb570"
	preRangeCoded  = "4556533100100008060c02022585c24a04cc256171501530958740bd84ac2e125026612b0a8a407586b09586d4042c3584a802b570"
)

// oldSegment wraps frames that still carry their 7-byte headers in a
// segment whose header is the first frame's, so the only thing stale about
// it is what those headers declare.
func oldSegment(frames ...[]byte) []byte {
	seg := []byte(segmentMagic)
	seg = append(seg, frames[0][1:7]...)
	seg = binary.AppendUvarint(seg, uint64(len(frames)))
	var types byte
	for i, f := range frames {
		if FrameType(f[0]) == PFrame {
			types |= 1 << i
		}
	}
	seg = append(seg, types)
	for _, f := range frames {
		seg = binary.AppendUvarint(seg, uint64(len(f)-7))
		seg = append(seg, f[7:]...)
	}
	return seg
}

// TestStaleFormatRejected: a payload from a store written before a format
// change fails to parse with ErrStaleFormat, whose text tells the operator
// to re-ingest — frames of an older block, coefficient or entropy syntax,
// and the containers that held one header per frame.
func TestStaleFormatRejected(t *testing.T) {
	bs, err := EncodeSequence(Config{GOP: 2, Quality: 6, SearchRange: 1}, rsFrames(t, 16, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	words, _ := hex.DecodeString(preRangeCoded)
	for _, old := range []struct {
		name string
		seg  []byte
	}{
		{"pre-skip/CBP", oldSegment(mustHex(t, preCBPIFrame), mustHex(t, preCBPPFrame))},
		{"pre-last-flag", oldSegment(mustHex(t, preLastIFrame), mustHex(t, preLastPFrame))},
		{"pre-range-coded", words},
	} {
		if _, err := ParseSegment(old.seg); !errors.Is(err, ErrStaleFormat) || !strings.Contains(err.Error(), "bit 4") {
			t.Errorf("%s segment: err = %v, want ErrStaleFormat naming bit 4", old.name, err)
		}
	}
	// The same quantized blocks in no more bytes than their exp-Golomb
	// words, and the I-frame in fewer.
	old, err := ParseSegment(append(words[:9:9], append([]byte{words[9] | flagRangeCoded}, words[10:]...)...))
	if err != nil {
		t.Fatal(err)
	}
	for k := range bs.Frames {
		if len(bs.Frames[k]) > len(old.Frames[k]) || k == 0 && len(bs.Frames[k]) == len(old.Frames[k]) {
			t.Errorf("%c-frame body is %d bytes against the exp-Golomb syntax's %d", bs.Types[k], len(bs.Frames[k]), len(old.Frames[k]))
		}
	}
	orig, _ := hex.DecodeString(preSegmentOrig)
	tile, _ := hex.DecodeString(preSegmentTile)
	// The bodies behind the per-frame headers are the segment container's
	// bit for bit: the container changed, not a pixel.
	if b0, b1 := orig[8+5+7:8+5+0x2c], orig[len(orig)-2:]; !bytes.Equal(b0, old.Frames[0]) || !bytes.Equal(b1, old.Frames[1]) {
		t.Errorf("old frame bodies %x %x, want the segment container's %x %x", b0, b1, old.Frames[0], old.Frames[1])
	}
	for name, data := range map[string][]byte{
		"bare segment":                 orig,
		"EVT1 tile, envelope stripped": tile[9:],
		"exp-Golomb segment":           words,
	} {
		_, err := ParseSegment(data)
		if !errors.Is(err, ErrStaleFormat) || !strings.Contains(err.Error(), "re-ingest the video") {
			t.Errorf("%s: err = %v, want ErrStaleFormat naming \"re-ingest the video\"", name, err)
		}
	}
}

func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBitIOMatchesReference drives the range coder against the reference
// one — named models, a big-integer code value — with random sequences of
// context bins (over a few contexts, some heavily skewed so probabilities
// reach their floor), bypass runs and exp-Golomb values: the bodies must be
// identical and both decoders must read every value back and end exactly
// at the body's end.
func TestBitIOMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		var e rangeEncoder
		e.reset()
		ref := newRefRangeEncoder()
		var ctxs [4]binContext
		for i := range ctxs {
			ctxs[i] = newBinContext
		}
		type field struct {
			kind, ctx int
			v         uint32
		}
		var fields []field
		for k := 0; k < rng.Intn(400); k++ {
			f := field{kind: rng.Intn(3), ctx: rng.Intn(len(ctxs))}
			switch f.kind {
			case 0: // context k skews its bins toward 1 with odds k:1
				f.v = b2u(rng.Intn(f.ctx*8+2) != 0)
				e.encode(&ctxs[f.ctx], f.v)
				ref.bin(ref.models.get("c%d", f.ctx), int(f.v))
			case 1:
				f.v = rng.Uint32() >> uint(rng.Intn(33)) & 1
				e.bypass(f.v, 1)
				ref.bypass(int(f.v))
			case 2:
				f.v = rng.Uint32() >> uint(12+rng.Intn(21))
				writeExpGolomb(&e, f.v)
				ref.expGolomb(int(f.v))
			}
			fields = append(fields, f)
		}
		data := e.bytes()
		if want := ref.bytes(); !bytes.Equal(data, want) {
			t.Fatalf("trial %d: bodies differ:\n%x\n%x", trial, data, want)
		}
		var d rangeDecoder
		d.reset(data)
		rd := newRefRangeDecoder(data)
		for i := range ctxs {
			ctxs[i] = newBinContext
		}
		for i, f := range fields {
			var got, refGot uint32
			switch f.kind {
			case 0:
				got, refGot = d.decode(&ctxs[f.ctx]), uint32(rd.bin(rd.models.get("c%d", f.ctx)))
			case 1:
				got, refGot = d.bypass(1), uint32(rd.bypass())
			case 2:
				got, refGot = readExpGolomb(&d), uint32(rd.expGolomb())
			}
			if got != f.v || refGot != f.v {
				t.Fatalf("trial %d field %d (kind %d): read %d / reference %d, want %d", trial, i, f.kind, got, refGot, f.v)
			}
		}
		if err := d.finish(); err != nil || rd.err != nil || rd.pos != len(data)+rangeSlack {
			t.Fatalf("trial %d: finish %v, reference %v at %d of %d+%d", trial, err, rd.err, rd.pos, len(data), rangeSlack)
		}
	}
}

// TestSegmentBytesPinned pins the exact size and the FNV-64a digest of
// one RS segment at the benchmark's ingest settings (GOP 30, quality 6,
// search range 2), at the playback workloads' 320×160 and serve_zipf's
// 128×64, so any change to the transform, the quantizer, motion search, the
// entropy layer or the container shows in this package's tests and not only
// in the benchmark's wire bytes; a same-length bit flip moves the digest. A
// third RS row turns ChromaCoding and HalfPel on, so the chroma quantizer
// steps and predict's bilinear path are pinned too. It also pins the
// per-tile floor: the smallest tile segment a 96×48 tiled ingest stores
// (segment 1, tile 3 of the 4×2 grid of 24×24 tiles, the coarsest rung's
// quality 24), whose tile payload is this segment behind the 9-byte tile
// envelope.
func TestSegmentBytesPinned(t *testing.T) {
	check := func(name string, bs *Bitstream, total int, digest uint64) {
		t.Helper()
		if got := bs.TotalBytes(); got != total {
			t.Errorf("%s: segment %d B, want %d", name, got, total)
		}
		seg, err := AppendSegment(nil, bs)
		if err != nil || len(seg) != bs.TotalBytes() {
			t.Errorf("%s: AppendSegment wrote %d B (err %v), TotalBytes says %d", name, len(seg), err, bs.TotalBytes())
		}
		h := fnv.New64a()
		h.Write(seg)
		if got := h.Sum64(); got != digest {
			t.Errorf("%s: segment digest %#016x, want %#016x", name, got, digest)
		}
	}
	for _, tc := range []struct {
		cfg           Config
		w, h          int
		iFrame, total int
		digest        uint64
	}{
		{Config{GOP: 30, Quality: 6, SearchRange: 2}, 320, 160, 4109, 19602, 0xa1fbeca76b9999b7},
		{Config{GOP: 30, Quality: 6, SearchRange: 2}, 128, 64, 959, 4171, 0x45322c3e87a53a41},
		{Config{GOP: 30, Quality: 6, SearchRange: 2, ChromaCoding: true, HalfPel: true}, 128, 64, 396, 4021, 0xbb3f8953752920b1},
	} {
		name := fmt.Sprintf("RS %d×%d %+v", tc.w, tc.h, tc.cfg)
		bs, err := EncodeSequence(tc.cfg, rsFrames(t, tc.w, tc.h, 30))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(bs.Frames[0]); got != tc.iFrame {
			t.Errorf("%s: I-frame body %d B, want %d", name, got, tc.iFrame)
		}
		check(name, bs, tc.total, tc.digest)
	}
	tile := make([]*frame.Frame, 30)
	for i, f := range rsFrames(t, 96, 48, 60)[30:] {
		tile[i] = frame.New(24, 24)
		for y := 0; y < 24; y++ {
			copy(tile[i].Pix[y*24*3:(y+1)*24*3], f.Pix[(y*96+72)*3:(y*96+96)*3])
		}
	}
	bs, err := EncodeSequence(Config{GOP: 30, Quality: 24, SearchRange: 2}, tile)
	if err != nil {
		t.Fatal(err)
	}
	check("smallest 96×48-grid tile", bs, 96, 0xcc9545bb089eb9b4)
}
