package pte

// lineBuffer models the P-MEM input scratchpad (§6.2, "Accelerator Memory"):
// instead of holding the entire input frame (tens of MB for 4K video), the
// P-MEM holds a sliding window of input rows, like the line buffers of an
// ISP. The filtering stage's stencil-like access pattern — a small block of
// adjacent pixels whose rows drift slowly across the raster scan — makes a
// row-granular LRU window an accurate model: each first touch of a
// non-resident row triggers one DMA refill of that row from DRAM.
//
// Resident rows form a recency list threaded through row-indexed links
// (most recent first), so a touch — hit, refill or eviction — is O(1) and a
// repeat touch of the most recent row, the common case of a 2×2 stencil, is
// one compare.
type lineBuffer struct {
	capacity int // rows that fit in the scratchpad
	resident int
	refills  int64
	// link[r] is row r's neighbours in the recency list, prev < 0 when r is
	// not resident. The last element is the list's sentinel: its next is the
	// most recently used row, its prev the least.
	link []rowLink
}

type rowLink struct{ prev, next int32 }

// newLineBuffer sizes the window for an input frame (RGB24 rows).
func newLineBuffer(sizeBytes, frameWidth, frameHeight int) *lineBuffer {
	rowBytes := frameWidth * 3
	capacity := 1
	if rowBytes > 0 {
		capacity = sizeBytes / rowBytes
		if capacity < 1 {
			capacity = 1
		}
	}
	lb := &lineBuffer{capacity: capacity, link: make([]rowLink, frameHeight+1)}
	for r := range lb.link {
		lb.link[r].prev = -1
	}
	end := int32(frameHeight)
	lb.link[end].prev, lb.link[end].next = end, end
	return lb
}

// touch records an access to an input row, refilling it if non-resident and
// evicting the least-recently-used row when the window is full.
func (lb *lineBuffer) touch(row int) {
	end := int32(len(lb.link) - 1)
	r := int32(row)
	if lb.link[end].next == r {
		return
	}
	if lb.link[r].prev >= 0 {
		lb.unlink(r)
	} else {
		lb.refills++
		if lb.resident == lb.capacity {
			lru := lb.link[end].prev
			lb.unlink(lru)
			lb.link[lru].prev = -1
		} else {
			lb.resident++
		}
	}
	first := lb.link[end].next
	lb.link[r].prev, lb.link[r].next = end, first
	lb.link[first].prev = r
	lb.link[end].next = r
}

func (lb *lineBuffer) unlink(r int32) {
	l := lb.link[r]
	lb.link[l.prev].next = l.next
	lb.link[l.next].prev = l.prev
}
