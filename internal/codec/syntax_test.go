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
	// outright and the residual is zero, so the body is one set bit per
	// block.
	data, stats := pFrame(Config{GOP: 2, Quality: 4, SearchRange: 2}, textured, textured)
	if stats.skips != blocks {
		t.Errorf("static frame: %d of %d blocks skipped", stats.skips, blocks)
	}
	if !bytes.Equal(data, []byte{0xFF}) {
		t.Errorf("static frame body = %x, want ff", data)
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
	// coded starts a P-frame whose first block has a zero vector and codes
	// channel 0 only.
	coded := func() *bitWriter {
		w := &bitWriter{}
		w.writeBits(0, 1)
		w.writeSE(0)
		w.writeSE(0)
		w.writeBits(0b001, 3)
		return w
	}

	// Both blocks skipped: the reference again.
	w := &bitWriter{}
	w.writeBits(0b11, 2)
	want, err := NewDecoder().Decode(key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decode(PFrame, w.bytes()); err != nil {
		t.Fatalf("all-skip frame: %v", err)
	} else if !got.Equal(want) {
		t.Error("all-skip frame is not a copy of the reference")
	}

	// The payload ends after the first block's skip bit: the pad bits read
	// as an unskipped block whose vector runs off the end.
	w = &bitWriter{}
	w.writeBits(1, 1)
	if _, err := decode(PFrame, w.bytes()); !errors.Is(err, errBitstream) {
		t.Errorf("stream ending after a skip bit: err = %v, want errBitstream", err)
	}

	// skip=0, SE(1), SE(1) fill seven bits; the byte's last bit is the
	// first of the three pattern bits and the payload ends there.
	w = &bitWriter{}
	w.writeBits(0, 1)
	w.writeSE(1)
	w.writeSE(1)
	w.writeBits(1, 1)
	if data := w.bytes(); len(data) != 1 {
		t.Fatalf("crafted body is %d bytes, want 1", len(data))
	} else if _, err := decode(PFrame, data); !errors.Is(err, errBitstream) {
		t.Errorf("stream ending inside the block pattern: err = %v, want errBitstream", err)
	}

	// A coded channel's list is the escape, as an empty intra list would
	// be; the second block is a skip so the frame is otherwise whole.
	w = coded()
	w.writeUE(escapeRun)
	w.writeBits(1, 1)
	if _, err := decode(PFrame, w.bytes()); !errors.Is(err, errBitstream) {
		t.Errorf("escape in a coded P channel: err = %v, want errBitstream", err)
	}

	// A coded level of zero carries nothing; the encoder never writes one.
	w = coded()
	w.writeUE(0)
	w.writeSE(0)
	w.writeBits(1, 1)
	w.writeBits(1, 1)
	if _, err := decode(PFrame, w.bytes()); !errors.Is(err, errBitstream) {
		t.Errorf("zero level in a coded P channel: err = %v, want errBitstream", err)
	}

	// Sixty-four one-coefficient pairs fill the block without a last flag;
	// a sixty-fifth pair has no coefficient to land on.
	w = coded()
	for k := 0; k <= blockLen; k++ {
		w.writeUE(0)
		w.writeSE(1)
		w.writeBits(0, 1)
	}
	if _, err := decode(PFrame, w.bytes()); !errors.Is(err, errBitstream) {
		t.Errorf("list running past 64 coefficients: err = %v, want errBitstream", err)
	}

	// Six block bits, UE(7) and SE(1) end exactly on a byte: the payload
	// ends between the level and its last flag.
	w = coded()
	w.writeUE(7)
	w.writeSE(1)
	if data := w.bytes(); len(data) != 2 {
		t.Fatalf("crafted body is %d bytes, want 2", len(data))
	} else if _, err := decode(PFrame, data); !errors.Is(err, errBitstream) {
		t.Errorf("stream ending before a last flag: err = %v, want errBitstream", err)
	}

	// In an I-frame a list may be the escape, but only as its first run:
	// six escapes are a mid-gray frame, an escape after a pair is corrupt.
	w = &bitWriter{}
	for k := 0; k < 6; k++ {
		w.writeUE(escapeRun)
	}
	if got, err := decode(IFrame, w.bytes()); err != nil {
		t.Errorf("I-frame of six escapes: %v", err)
	} else if got.Pix[0] != 128 || got.Pix[len(got.Pix)-1] != 128 {
		t.Errorf("I-frame of six escapes decodes to %d…%d, want mid-gray", got.Pix[0], got.Pix[len(got.Pix)-1])
	}
	w = &bitWriter{}
	w.writeUE(0)
	w.writeSE(1)
	w.writeBits(0, 1)
	w.writeUE(escapeRun)
	for k := 0; k < 5; k++ {
		w.writeUE(escapeRun)
	}
	if _, err := decode(IFrame, w.bytes()); !errors.Is(err, errBitstream) {
		t.Errorf("escape after a list's first pair: err = %v, want errBitstream", err)
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

// The same two frames in the current syntax as the stores written before
// the segment container held them: a bare segment (W, H, count as
// little-endian u16, u16, u32, then type u8, length u32 and a headed frame
// per frame) and an "EVT1" tile (tile 5 of a 4×2 grid, rung 1; big-endian
// W, H, count, then type, length and a headed frame per frame).
const (
	preSegmentOrig = "1000080002000000492c0000004900100008060c85c24a04cc256171501530958740bd84ac2e125026612b0a8a407586b09586d4042c3584a850090000005000100008060cb570"
	preSegmentTile = "4556543104020005010010000800000002490000002c4900100008060c85c24a04cc256171501530958740bd84ac2e125026612b0a8a407586b09586d4042c3584a850000000095000100008060cb570"
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
// to re-ingest — frames of an older block or coefficient syntax, and the
// containers that held one header per frame.
func TestStaleFormatRejected(t *testing.T) {
	bs, err := EncodeSequence(Config{GOP: 2, Quality: 6, SearchRange: 1}, rsFrames(t, 16, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []struct{ name, i, p, why string }{
		{"pre-skip/CBP", preCBPIFrame, preCBPPFrame, "bit 3"},
		{"pre-last-flag", preLastIFrame, preLastPFrame, "bit 3"},
	} {
		iOld, _ := hex.DecodeString(old.i)
		pOld, _ := hex.DecodeString(old.p)
		// The same quantized blocks, in fewer bytes.
		for k, data := range [][]byte{iOld, pOld} {
			if len(bs.Frames[k]) >= len(data)-7 {
				t.Errorf("%s: %c-frame body is %d bytes, no smaller than the old format's %d", old.name, bs.Types[k], len(bs.Frames[k]), len(data)-7)
			}
		}
		if _, err := ParseSegment(oldSegment(iOld, pOld)); !errors.Is(err, ErrStaleFormat) || !strings.Contains(err.Error(), old.why) {
			t.Errorf("%s segment: err = %v, want ErrStaleFormat naming %s", old.name, err, old.why)
		}
	}
	orig, _ := hex.DecodeString(preSegmentOrig)
	tile, _ := hex.DecodeString(preSegmentTile)
	// The bodies behind those headers are this package's frames bit for bit:
	// the container changed, not a pixel.
	if b0, b1 := orig[8+5+7:8+5+0x2c], orig[len(orig)-2:]; !bytes.Equal(b0, bs.Frames[0]) || !bytes.Equal(b1, bs.Frames[1]) {
		t.Errorf("old frame bodies %x %x, want this encoder's %x %x", b0, b1, bs.Frames[0], bs.Frames[1])
	}
	for name, data := range map[string][]byte{
		"bare segment":                 orig,
		"EVT1 tile, envelope stripped": tile[9:],
	} {
		_, err := ParseSegment(data)
		if !errors.Is(err, ErrStaleFormat) || !strings.Contains(err.Error(), "re-ingest the video") {
			t.Errorf("%s: err = %v, want ErrStaleFormat naming \"re-ingest the video\"", name, err)
		}
	}
}

// TestBitIOMatchesReference drives the accumulator-based bit writer and
// reader against the bit-at-a-time ones with random field sequences.
func TestBitIOMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		w, ref := &bitWriter{}, &refBitWriter{}
		type field struct {
			kind int
			v    uint64
			n    uint
		}
		var fields []field
		for k := 0; k < 1+rng.Intn(40); k++ {
			f := field{kind: rng.Intn(3), v: rng.Uint64() >> uint(rng.Intn(64)), n: uint(rng.Intn(57))}
			if f.kind == 2 { // writeSE doubles its argument
				f.v = uint64(int64(f.v%(1<<30)) * int64(1-2*rng.Intn(2)))
			}
			switch f.kind {
			case 0:
				f.v &= 1<<f.n - 1
				w.writeBits(f.v, f.n)
				ref.writeBits(f.v, f.n)
			case 1:
				w.writeUE(uint32(f.v))
				ref.writeUE(uint32(f.v))
			case 2:
				w.writeSE(int32(f.v))
				ref.writeSE(int32(f.v))
			}
			fields = append(fields, f)
		}
		data := w.bytes()
		if !bytes.Equal(data, ref.bytes()) {
			t.Fatalf("trial %d: writers disagree", trial)
		}
		r := newBitReader(data)
		for i, f := range fields {
			var got uint64
			var err error
			switch f.kind {
			case 0:
				got, err = r.readBits(f.n)
			case 1:
				var u uint32
				u, err = r.readUE()
				got, f.v = uint64(u), uint64(uint32(f.v))
			case 2:
				var s int32
				s, err = r.readSE()
				got, f.v = uint64(s), uint64(int32(f.v))
			}
			if err != nil || got != f.v {
				t.Fatalf("trial %d field %d (kind %d): read %d (%v), want %d", trial, i, f.kind, got, err, f.v)
			}
		}
		// Past the end both readers fail.
		rr := &refBitReader{buf: data[:len(data)/2]}
		r = newBitReader(data[:len(data)/2])
		for {
			a, errA := r.readUE()
			b, errB := rr.readUE()
			if a != b || (errA == nil) != (errB == nil) {
				t.Fatalf("trial %d: truncated read %d (%v) vs reference %d (%v)", trial, a, errA, b, errB)
			}
			if errA != nil {
				break
			}
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
		{Config{GOP: 30, Quality: 6, SearchRange: 2}, 320, 160, 7039, 27169, 0xdb96910b0906fdf8},
		{Config{GOP: 30, Quality: 6, SearchRange: 2}, 128, 64, 1864, 6162, 0x22baae546e3a4fc5},
		{Config{GOP: 30, Quality: 6, SearchRange: 2, ChromaCoding: true, HalfPel: true}, 128, 64, 881, 5641, 0x811853ed841d2a67},
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
	check("smallest 96×48-grid tile", bs, 161, 0xc3ad6e4c85af4860)
}
