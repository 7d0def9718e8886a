package vm

import (
	"fmt"
	"testing"

	"cmcp/internal/sim"
)

// idleScanCost scans base twice and returns what the second scan
// charged. The first scan clears every accessed bit, so the second
// sends no IPIs and its charge is the PTE scan alone.
func idleScanCost(m *Manager, base sim.PageID) sim.Cycles {
	m.ScanAccessed(base)
	m.TakeScanCost()
	m.ScanAccessed(base)
	return m.TakeScanCost()
}

// TestScanChargeEdgeCases pins the scan's PTE charge: a 64 kB group is
// charged 16 PTEs only while its lowest core bit has a live PTE behind
// it. A phantom lowest bit (injected skew) drops the charge to 1 until
// ResyncCores repairs the set; a mapping with no cores and an absent
// page are charged 1.
func TestScanChargeEdgeCases(t *testing.T) {
	scanPTE := sim.DefaultCostModel().ScanPTE
	m := newMgr(t, 4, 64, PSPTKind, sim.Size64k)
	mustAccess(t, m, 2, 16, false, 0)
	mustAccess(t, m, 3, 20, false, 0)
	p := m.as.(*psptAS).PSPT()

	if got, want := idleScanCost(m, 16), sim.Span64k*scanPTE; got != want {
		t.Errorf("64 kB group: charge = %d, want %d", got, want)
	}
	if pc, ok := p.InjectPhantomCoreBit(16); !ok || pc != 0 {
		t.Fatalf("phantom = %d, %v; want core 0", pc, ok)
	}
	if got := idleScanCost(m, 16); got != scanPTE {
		t.Errorf("phantom lowest core: charge = %d, want %d", got, scanPTE)
	}
	if !p.ResyncCores(16) {
		t.Fatal("ResyncCores must drop the phantom")
	}
	if got, want := idleScanCost(m, 16), sim.Span64k*scanPTE; got != want {
		t.Errorf("after ResyncCores: charge = %d, want %d", got, want)
	}
	p.Rebuild(nil) // the record stays resident with an empty core set
	if got := idleScanCost(m, 16); got != scanPTE {
		t.Errorf("no cores: charge = %d, want %d", got, scanPTE)
	}
	if got := idleScanCost(m, 48); got != scanPTE {
		t.Errorf("absent page: charge = %d, want %d", got, scanPTE)
	}

	reg := newMgr(t, 4, 64, RegularPT, sim.Size64k)
	mustAccess(t, reg, 1, 16, false, 0)
	if got, want := idleScanCost(reg, 16), sim.Span64k*scanPTE; got != want {
		t.Errorf("regular tables, 64 kB group: charge = %d, want %d", got, want)
	}
}

// scanManager faults pages [0, pages) of the given size class in on
// every core, so each mapping is shared by all of them.
func scanManager(tb testing.TB, kind TableKind, size sim.PageSize, cores, pages int) *Manager {
	tb.Helper()
	span := int(size.Span())
	m, err := NewManager(Config{
		Cores: cores, Frames: pages * span, PageSize: size, Tables: kind, Pages: pages * span,
	}, fifoFactory)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		for c := 0; c < cores; c++ {
			if _, err := m.Access(sim.CoreID(c), sim.PageID(i*span), false, 0); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return m
}

// scanStep re-sets one core's accessed bit on the i-th page and scans
// it, so every step clears a bit and sends a shootdown.
func scanStep(m *Manager, size sim.PageSize, cores, pages, i int) {
	base := sim.PageID(i%pages) * size.Span()
	m.as.Touch(sim.CoreID(i%cores), base, false)
	m.ScanAccessed(base)
}

// TestScanAccessedZeroAllocs is the allocation guard for the scan path:
// after warm-up, a scan step allocates nothing on either organization.
func TestScanAccessedZeroAllocs(t *testing.T) {
	for _, kind := range []TableKind{PSPTKind, RegularPT} {
		for _, size := range []sim.PageSize{sim.Size4k, sim.Size64k} {
			m := scanManager(t, kind, size, 8, 4)
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				scanStep(m, size, 8, 4, i)
				i++
			})
			if avg != 0 {
				t.Errorf("%v/%v: ScanAccessed allocates %.1f objects, want 0", kind, size, avg)
			}
		}
	}
}

// BenchmarkManagerScanAccessed measures Manager.ScanAccessed, the
// access-bit scan with its cost charge and shootdown bookkeeping, on
// eight sharing cores.
func BenchmarkManagerScanAccessed(b *testing.B) {
	for _, kind := range []TableKind{PSPTKind, RegularPT} {
		for _, size := range []sim.PageSize{sim.Size4k, sim.Size64k} {
			b.Run(fmt.Sprintf("%v/%v", kind, size), func(b *testing.B) {
				m := scanManager(b, kind, size, 8, 64)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					scanStep(m, size, 8, 64, i)
				}
			})
		}
	}
}
