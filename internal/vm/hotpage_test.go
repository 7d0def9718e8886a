package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"cmcp/internal/pagetable"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/tlb"
)

// Tests for the per-core same-page memo (hotPage): every invalidation
// site must clear it, a fault must leave it invalid, and a manager that
// uses it must be indistinguishable from one that never does.

// memoize touches vpn twice by core so the memo holds it, and fails
// unless it does.
func memoize(t *testing.T, m *Manager, core sim.CoreID, vpn sim.PageID, write bool) {
	t.Helper()
	mustAccess(t, m, core, vpn, write, 0)
	mustAccess(t, m, core, vpn, write, 0)
	if got, _, ok := m.HotPage(core); !ok || got != vpn {
		t.Fatalf("core %d memo = %d/%v, want page %d", core, got, ok, vpn)
	}
}

// requireWalk touches vpn by core and requires the touch to miss the
// TLB and walk the page tables — i.e. the memo did not serve it.
func requireWalk(t *testing.T, m *Manager, core sim.CoreID, vpn sim.PageID, write bool) {
	t.Helper()
	if _, _, ok := m.HotPage(core); ok {
		t.Fatalf("core %d memo still valid after invalidation", core)
	}
	r := m.Run()
	misses, walks := r.Get(core, stats.DTLBMisses), r.Get(core, stats.PageWalks)
	mustAccess(t, m, core, vpn, write, 0)
	if r.Get(core, stats.DTLBMisses) != misses+1 || r.Get(core, stats.PageWalks) != walks+1 {
		t.Errorf("core %d touch of page %d after invalidation: misses %d→%d, walks %d→%d, want one of each",
			core, vpn, misses, r.Get(core, stats.DTLBMisses), walks, r.Get(core, stats.PageWalks))
	}
}

func TestHotPageClearedByEvictShootdown(t *testing.T) {
	for _, kind := range []TableKind{PSPTKind, RegularPT} {
		t.Run(kind.String(), func(t *testing.T) {
			// 4 frames; core 1 memoizes page 0, the FIFO head. Core 0
			// fills the rest, then core 2's fault evicts page 0.
			m := newMgr(t, 3, 4, kind, sim.Size4k)
			memoize(t, m, 1, 0, true)
			for v := sim.PageID(1); v < 4; v++ {
				mustAccess(t, m, 0, v, false, 0)
			}
			mustAccess(t, m, 2, 100, false, 0)
			if m.Run().Get(2, stats.Evictions) != 1 {
				t.Fatal("setup: no eviction")
			}
			requireWalk(t, m, 1, 0, false)
		})
	}
}

func TestHotPageClearedByScan(t *testing.T) {
	for _, kind := range []TableKind{PSPTKind, RegularPT} {
		t.Run(kind.String(), func(t *testing.T) {
			m := newMgr(t, 2, 16, kind, sim.Size4k)
			memoize(t, m, 0, 5, true)
			memoize(t, m, 1, 5, false)
			if !m.ScanAccessed(5) {
				t.Fatal("scan found no accessed bit")
			}
			for c := sim.CoreID(0); c < 2; c++ {
				if pte, _, _ := m.Lookup(c, 5); pte.Has(pagetable.Accessed) {
					t.Fatalf("core %d: scan left Accessed set", c)
				}
			}
			// Core 0's memo said dirty; a write must still set Accessed
			// again, and Dirty with it.
			requireWalk(t, m, 0, 5, true)
			if pte, _, _ := m.Lookup(0, 5); !pte.Has(pagetable.Accessed) || !pte.Has(pagetable.Dirty) {
				t.Errorf("write after scan clear: PTE %v lacks Accessed|Dirty", pte)
			}
			requireWalk(t, m, 1, 5, true)
			if pte, _, _ := m.Lookup(1, 5); !pte.Has(pagetable.Accessed) || !pte.Has(pagetable.Dirty) {
				t.Errorf("core 1 write after scan clear: PTE %v lacks Accessed|Dirty", pte)
			}
		})
	}
}

func TestHotPageClearedByPSPTRebuild(t *testing.T) {
	m := newRebuildMgr(t)
	memoize(t, m, 3, 40, false)
	m.maybeRebuildPSPT(m.nextRebuild)
	for c := 0; c < m.Cores(); c++ {
		if _, _, ok := m.HotPage(sim.CoreID(c)); ok {
			t.Errorf("core %d memo survived the rebuild", c)
		}
	}
	requireWalk(t, m, 3, 40, false)
}

func TestHotPageNotSetByFault(t *testing.T) {
	m := newMgr(t, 2, 16, PSPTKind, sim.Size4k)
	mustAccess(t, m, 0, 5, true, 0) // major fault
	if _, _, ok := m.HotPage(0); ok {
		t.Error("memo set by a major fault")
	}
	mustAccess(t, m, 1, 5, false, 0) // PSPT minor fault
	if _, _, ok := m.HotPage(1); ok {
		t.Error("memo set by a minor fault")
	}
	mustAccess(t, m, 0, 5, false, 0) // L1 hit: the memo forms now
	if vpn, dirty, ok := m.HotPage(0); !ok || vpn != 5 || dirty {
		t.Errorf("memo after a read hit = %d/%v/%v, want 5/false/true", vpn, dirty, ok)
	}
}

// TestHotPageMatchesNoMemo drives two identical managers through one
// seeded random schedule of touches (with strong same-page runs),
// scans, ticks and the evictions the small device forces. The
// reference manager's memo is cleared before every access, so it always
// takes the full TLB + page-table path. Every counter, every PTE and
// every device frame signature must agree throughout.
func TestHotPageMatchesNoMemo(t *testing.T) {
	// A geometry with no 64 kB L1 entries caches no 64 kB translation
	// at all, so every touch of a 64 kB page walks.
	no64k := tlb.Config{L1Entries4k: 64, L1Entries2M: 8, L2Entries: 64}
	for _, tc := range []struct {
		kind    TableKind
		size    sim.PageSize
		rebuild sim.Cycles
		tlb     tlb.Config
	}{
		{PSPTKind, sim.Size4k, 0, tlb.Config{}},
		{PSPTKind, sim.Size4k, 20_000, tlb.Config{}},
		{RegularPT, sim.Size4k, 0, tlb.Config{}},
		{PSPTKind, sim.Size64k, 0, tlb.Config{}},
		{RegularPT, sim.Size64k, 0, tlb.Config{}},
		{PSPTKind, sim.Size64k, 0, no64k},
	} {
		name := fmt.Sprintf("%v/%v/rebuild=%d", tc.kind, tc.size, tc.rebuild)
		if tc.tlb != (tlb.Config{}) {
			name += "/no64kL1"
		}
		t.Run(name, func(t *testing.T) {
			const cores, pages = 4, 256
			mk := func() *Manager {
				m, err := NewManager(Config{
					Cores: cores, Frames: 64, PageSize: tc.size, Tables: tc.kind,
					Verify: true, Pages: pages, PSPTRebuildPeriod: tc.rebuild, TLB: tc.tlb,
				}, func(h policy.Host) policy.Policy {
					return policy.NewLRU(h, policy.WithScanPeriod(5_000), policy.WithScanBatch(8))
				})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			m, ref := mk(), mk()
			rng := rand.New(rand.NewSource(7))
			last := make([]sim.PageID, cores)
			var now sim.Cycles
			hits := 0
			for step := 0; step < 20_000; step++ {
				switch r := rng.Intn(100); {
				case r < 2:
					now += 1_000
					if a, b := m.Tick(now), ref.Tick(now); a != b {
						t.Fatalf("step %d: tick cost %d vs %d", step, a, b)
					}
				case r < 4:
					base := sim.PageID(rng.Intn(pages))
					if a, b := m.ScanAccessed(base), ref.ScanAccessed(base); a != b {
						t.Fatalf("step %d: scan of %d: %v vs %v", step, base, a, b)
					}
				default:
					core := sim.CoreID(rng.Intn(cores))
					vpn := last[core]
					if rng.Intn(4) == 0 {
						vpn = sim.PageID(rng.Intn(pages))
						last[core] = vpn
					}
					write := rng.Intn(3) == 0
					ref.hot[core].valid = false
					if h := m.hot[core]; h.valid && h.vpn == vpn {
						hits++
					}
					a, errA := m.Access(core, vpn, write, now)
					b, errB := ref.Access(core, vpn, write, now)
					if errA != nil || errB != nil {
						t.Fatalf("step %d: %v / %v", step, errA, errB)
					}
					if a != b {
						t.Fatalf("step %d: core %d page %d done at %d vs %d", step, core, vpn, a, b)
					}
				}
			}
			for c := 0; c <= cores; c++ {
				for k := 0; k < stats.NumCounters; k++ {
					cnt := stats.Counter(k)
					if a, b := m.Run().Get(sim.CoreID(c), cnt), ref.Run().Get(sim.CoreID(c), cnt); a != b {
						t.Errorf("core %d %s: %d vs %d", c, cnt.Name(), a, b)
					}
				}
			}
			if tc.tlb != (tlb.Config{}) {
				if hits != 0 {
					t.Errorf("memo served %d touches of pages the TLB cannot cache", hits)
				}
			} else if hits < 1_000 || m.Run().Total(stats.Evictions) == 0 ||
				m.Run().Total(stats.RemoteTLBInvalidations) == 0 {
				t.Fatalf("schedule too tame: %d memo hits, %d evictions, %d invalidations", hits,
					m.Run().Total(stats.Evictions), m.Run().Total(stats.RemoteTLBInvalidations))
			}
			for c := 0; c < cores; c++ {
				for v := sim.PageID(0); v < pages; v++ {
					pa, sa, oka := m.Lookup(sim.CoreID(c), v)
					pb, sb, okb := ref.Lookup(sim.CoreID(c), v)
					if pa != pb || sa != sb || oka != okb {
						t.Fatalf("core %d page %d: PTE %v/%v/%v vs %v/%v/%v", c, v, pa, sa, oka, pb, sb, okb)
					}
				}
			}
			for f := 0; f < m.Device().NumFrames(); f++ {
				fr := sim.FrameID(f)
				if m.Device().Signature(fr) != ref.Device().Signature(fr) || m.Device().Dirty(fr) != ref.Device().Dirty(fr) {
					t.Fatalf("frame %d: signature/dirty differ", f)
				}
			}
		})
	}
}
