package check_test

import (
	"strings"
	"testing"

	"cmcp/internal/check"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/vm"
)

// These tests prove the auditor actually catches bookkeeping bugs by
// deliberately injecting them into an otherwise healthy VM subsystem:
// a shootdown that never reached a TLB, a same-page memo that outlived
// its translation, a policy that miscounts its population, and an
// adaptive residency counter that skipped a decrement. A clean manager must audit clean.

func fifoFactory(policy.Host) policy.Policy { return policy.NewFIFO() }

func newManager(t *testing.T, cfg vm.Config, factory vm.PolicyFactory) *vm.Manager {
	t.Helper()
	if factory == nil {
		factory = fifoFactory
	}
	m, err := vm.NewManager(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// touch faults a spread of pages in so every bookkeeping layer has
// non-trivial state to audit.
func touch(t *testing.T, m *vm.Manager, cores, pages int) {
	t.Helper()
	var now sim.Cycles
	for i := 0; i < pages; i++ {
		done, err := m.Access(sim.CoreID(i%cores), sim.PageID(i*3), i%2 == 0, now)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
}

func TestAuditorCleanManagerPasses(t *testing.T) {
	for _, kind := range []vm.TableKind{vm.PSPTKind, vm.RegularPT} {
		t.Run(kind.String(), func(t *testing.T) {
			m := newManager(t, vm.Config{
				Cores: 4, Frames: 64, PageSize: sim.Size4k, Tables: kind, Pages: 256,
			}, nil)
			touch(t, m, 4, 40)
			aud := check.New(check.Config{})
			aud.Audit(m)
			if err := aud.Err(); err != nil {
				t.Fatalf("clean manager failed audit: %v", err)
			}
			if aud.Audits() != 1 {
				t.Errorf("audits = %d, want 1", aud.Audits())
			}
		})
	}
}

func TestAuditorCatchesStaleTLBEntry(t *testing.T) {
	m := newManager(t, vm.Config{
		Cores: 2, Frames: 64, PageSize: sim.Size4k, Tables: vm.PSPTKind, Pages: 256,
	}, nil)
	touch(t, m, 2, 20)
	// Inject the classic missed-shootdown bug: a cached translation for
	// a page that has no live mapping in the core's table view.
	m.TLBFor(0).Insert(199, sim.Size4k)
	aud := check.New(check.Config{})
	aud.Audit(m)
	assertViolation(t, aud, "tlb")
}

// TestAuditorCatchesCorruptMemo corrupts the state a core's same-page
// memo relies on without going through the manager — dropping the L1
// entry behind the memo's back, or clearing the PTE's Accessed bit with
// no shootdown — and requires the memo check to report each.
func TestAuditorCatchesCorruptMemo(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(m *vm.Manager)
	}{
		{"tlb-entry-dropped", func(m *vm.Manager) { m.TLBFor(0).Invalidate(300) }},
		{"accessed-cleared", func(m *vm.Manager) {
			p, _ := m.PSPT()
			p.ScanAccessed(300, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newManager(t, vm.Config{
				Cores: 2, Frames: 64, PageSize: sim.Size4k, Tables: vm.PSPTKind, Pages: 512,
			}, nil)
			touch(t, m, 2, 20)
			for i := 0; i < 2; i++ { // fault, then hit: the memo holds page 300
				if _, err := m.Access(0, 300, false, 0); err != nil {
					t.Fatal(err)
				}
			}
			if vpn, _, ok := m.HotPage(0); !ok || vpn != 300 {
				t.Fatalf("setup: memo = %d/%v", vpn, ok)
			}
			aud := check.New(check.Config{})
			aud.Audit(m)
			if err := aud.Err(); err != nil {
				t.Fatalf("clean memo failed audit: %v", err)
			}
			tc.corrupt(m)
			aud.Audit(m)
			assertViolation(t, aud, "tlb")
			if !strings.Contains(aud.Err().Error(), "memoizes page 300") {
				t.Errorf("violation does not name the memo: %v", aud.Err())
			}
		})
	}
}

// miscountingPolicy reports one more resident mapping than it tracks —
// the signature of a missed Remove or double PTESetup in a policy.
type miscountingPolicy struct{ policy.Policy }

func (p miscountingPolicy) Resident() int { return p.Policy.Resident() + 1 }

func TestAuditorCatchesMiscountingPolicy(t *testing.T) {
	m := newManager(t, vm.Config{
		Cores: 1, Frames: 64, PageSize: sim.Size4k, Tables: vm.PSPTKind, Pages: 256,
	}, func(policy.Host) policy.Policy {
		return miscountingPolicy{policy.NewFIFO()}
	})
	touch(t, m, 1, 10)
	aud := check.New(check.Config{})
	aud.Audit(m)
	assertViolation(t, aud, "residency")
}

func TestAuditorCatchesAdaptiveCounterDrift(t *testing.T) {
	m := newManager(t, vm.Config{
		Cores: 2, Frames: 1024, PageSize: sim.Size4k, Tables: vm.PSPTKind,
		Adaptive: true, Pages: 2048,
	}, nil)
	touch(t, m, 2, 30)
	_, groups, ok := m.AdaptiveResidency()
	if !ok || len(groups) == 0 {
		t.Fatal("adaptive counters absent")
	}
	// Inject a skipped resInGroup decrement: the counter now claims one
	// more resident mapping in group 0 than the page tables hold.
	groups[0]++
	aud := check.New(check.Config{})
	aud.Audit(m)
	assertViolation(t, aud, "adaptive")
}

func TestAuditorViolationLimitAndSummary(t *testing.T) {
	m := newManager(t, vm.Config{
		Cores: 1, Frames: 64, PageSize: sim.Size4k, Tables: vm.PSPTKind, Pages: 1024,
	}, nil)
	touch(t, m, 1, 10)
	for i := 0; i < 5; i++ {
		m.TLBFor(0).Insert(sim.PageID(500+i), sim.Size4k)
	}
	aud := check.New(check.Config{Limit: 2})
	aud.Audit(m)
	if got := len(aud.Violations()); got != 2 {
		t.Errorf("recorded %d violations, limit is 2", got)
	}
	err := aud.Err()
	if err == nil {
		t.Fatal("Err() = nil with violations recorded")
	}
	if !strings.Contains(err.Error(), "more") {
		t.Errorf("summary does not mention dropped violations: %v", err)
	}
}

func TestAuditorNotePeriod(t *testing.T) {
	m := newManager(t, vm.Config{
		Cores: 1, Frames: 64, PageSize: sim.Size4k, Tables: vm.PSPTKind, Pages: 64,
	}, nil)
	touch(t, m, 1, 5)
	aud := check.New(check.Config{Every: 4})
	for i := 0; i < 7; i++ {
		aud.Note(m)
	}
	if aud.Audits() != 1 {
		t.Errorf("audits = %d after 7 notes with period 4, want 1", aud.Audits())
	}
	aud.Note(m)
	if aud.Audits() != 2 {
		t.Errorf("audits = %d after 8 notes, want 2", aud.Audits())
	}
	if err := aud.Err(); err != nil {
		t.Errorf("clean periodic audits reported: %v", err)
	}
}

func assertViolation(t *testing.T, aud *check.Auditor, module string) {
	t.Helper()
	if aud.Err() == nil {
		t.Fatalf("auditor missed the injected %s bug", module)
	}
	for _, v := range aud.Violations() {
		if v.Module == module {
			return
		}
	}
	t.Fatalf("no %q violation among: %v", module, aud.Violations())
}
