package policy

import (
	"testing"

	"cmcp/internal/sim"
)

// bitHost serves accessed bits from a slice, with test-and-clear
// semantics, and allocates nothing itself.
type bitHost []bool

func (h bitHost) CoreMapCount(sim.PageID) int { return 1 }

func (h bitHost) ScanAccessed(base sim.PageID) bool {
	a := h[base]
	h[base] = false
	return a
}

// lruWithPages returns an LRU that scans on every tick, with pages
// [0, n) resident.
func lruWithPages(n int) (*LRU, bitHost) {
	h := make(bitHost, n)
	l := NewLRU(h, WithScanPeriod(1), WithScanBatch(n/2))
	for p := 0; p < n; p++ {
		l.PTESetup(sim.PageID(p))
	}
	return l, h
}

// lruStep marks every third page accessed, then runs one scanner tick,
// so pages keep moving between the active and inactive lists.
func lruStep(l *LRU, h bitHost, now sim.Cycles) {
	for p := int(now % 3); p < len(h); p += 3 {
		h[p] = true
	}
	l.Tick(now)
}

// TestLRUTickZeroAllocs is the allocation guard for the LRU scanner:
// after warm-up, a tick reuses its batch buffers.
func TestLRUTickZeroAllocs(t *testing.T) {
	l, h := lruWithPages(512)
	now := sim.Cycles(1)
	lruStep(l, h, now)
	avg := testing.AllocsPerRun(100, func() {
		now++
		lruStep(l, h, now)
	})
	if avg != 0 {
		t.Errorf("LRU.Tick allocates %.1f objects, want 0", avg)
	}
}

// BenchmarkLRUTick measures one scanner tick over 512 resident pages
// (two 256-page batches), including the host's bit test-and-clear.
func BenchmarkLRUTick(b *testing.B) {
	l, h := lruWithPages(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lruStep(l, h, sim.Cycles(i+1))
	}
}
