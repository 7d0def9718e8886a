package pspt

import (
	"fmt"
	"testing"

	"cmcp/internal/sim"
)

// sharedPSPT maps one region of the given size at base 0 on the lowest
// sharers cores of an n-core PSPT.
func sharedPSPT(tb testing.TB, n, sharers int, size sim.PageSize) *PSPT {
	tb.Helper()
	p := New(n)
	for c := 0; c < sharers; c++ {
		if _, _, err := p.Map(sim.CoreID(c), 0, size, 0, 0); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// The scan and the unmap walk core sets in place: once the caller's
// target buffer has grown, neither may touch the heap.
func TestScanAccessedZeroAllocs(t *testing.T) {
	for _, size := range []sim.PageSize{sim.Size4k, sim.Size64k, sim.Size2M} {
		p := sharedPSPT(t, 8, 8, size)
		var dst []sim.CoreID
		i := 0
		avg := testing.AllocsPerRun(100, func() {
			p.Touch(sim.CoreID(i%8), 0, false)
			i++
			_, _, dst = p.ScanAccessedSized(0, dst[:0])
		})
		if avg != 0 {
			t.Errorf("%v: scan allocates %.1f objects, want 0", size, avg)
		}
	}
}

func TestUnmapZeroAllocs(t *testing.T) {
	const runs = 100
	p := New(8)
	for base := sim.PageID(0); base <= runs; base++ {
		for c := sim.CoreID(0); c < 8; c++ {
			if _, _, err := p.Map(c, base, sim.Size4k, int64(base), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	next := sim.PageID(0)
	avg := testing.AllocsPerRun(runs, func() {
		if m, _ := p.Unmap(next); m == nil {
			t.Fatalf("page %d not resident", next)
		}
		next++
	})
	if avg != 0 {
		t.Errorf("Unmap allocates %.1f objects, want 0", avg)
	}
}

// BenchmarkScanAccessed measures one scan step — a core touches the
// region, the scanner tests and clears every sharer's bit — by page
// size and sharer count.
func BenchmarkScanAccessed(b *testing.B) {
	for _, size := range []sim.PageSize{sim.Size4k, sim.Size64k, sim.Size2M} {
		for _, sharers := range []int{1, 8, 56} {
			b.Run(fmt.Sprintf("%v/sharers=%d", size, sharers), func(b *testing.B) {
				p := sharedPSPT(b, 56, sharers, size)
				var dst []sim.CoreID
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Touch(sim.CoreID(i%sharers), 0, false)
					_, _, dst = p.ScanAccessedSized(0, dst[:0])
				}
			})
		}
	}
}
