package machine

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"cmcp/internal/check"
	"cmcp/internal/fault"
	"cmcp/internal/stats"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// tenantConfig is the base multi-tenant machine the tests below vary:
// enough tenants to make victim arbitration interesting, churn and a
// diurnal phase so the hot set moves, and a frame pool covering half
// the aggregate footprint so every policy is forced to evict across
// tenant boundaries.
func tenantConfig(tenants int) Config {
	spec := workload.DefaultTenantSpec(tenants, 1.2, 200)
	spec.DiurnalEvery = 1500
	return Config{
		Cores:       8,
		Tenants:     &spec,
		MemoryRatio: 0.5,
		Tables:      vm.PSPTKind,
		Policy:      PolicySpec{Kind: CMCP, P: -1},
		Seed:        11,
	}
}

// runJSON renders a Run for whole-record comparison: counters, tenant
// counters and every histogram, through the same marshaller journals
// use, so any divergence anywhere in the record fails the comparison.
func runJSON(t *testing.T, r *stats.Run) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTenantEnginesBitIdentical pins determinism for multi-tenant
// machines: a run — weighted or hard-partitioned, with churn and a
// diurnal phase — produces bit-identical results whether Simulate runs
// it directly or RunMany runs it on a pooled scratch arena, per-tenant
// record included.
func TestTenantEnginesBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"weighted", func(cfg *Config) {
			w := make([]float64, cfg.Tenants.Tenants)
			for i := range w {
				w[i] = 1 + float64(i%4) // uneven shares
			}
			cfg.Tenants.Weights = w
		}},
		{"hard-partition", func(cfg *Config) { cfg.Tenants.HardPartition = true }},
		{"lru", func(cfg *Config) { cfg.Policy = PolicySpec{Kind: LRU} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tenantConfig(24)
			tc.mod(&cfg)
			serial := simulateOn(t, "serial", cfg)
			parallel := simulateOn(t, "parallel", cfg)
			if serial.Runtime != parallel.Runtime {
				t.Errorf("runtime: serial %d, parallel %d", serial.Runtime, parallel.Runtime)
			}
			if serial.Run.Tenants == nil || parallel.Run.Tenants == nil {
				t.Fatal("tenant run produced no per-tenant record")
			}
			if a, b := runJSON(t, serial.Run), runJSON(t, parallel.Run); !bytes.Equal(a, b) {
				t.Error("per-tenant records differ between drivers")
			}
		})
	}
}

// TestTenant10kZipfAcceptance is the scale acceptance run: 10,000
// tenant address spaces under Zipfian selection complete
// deterministically, report a per-tenant p99 fault-service latency and
// a fairness metric, and are bit-identical across repeats.
func TestTenant10kZipfAcceptance(t *testing.T) {
	spec := workload.DefaultTenantSpec(10_000, 1.1, 0)
	spec.TotalTouches = 200_000
	cfg := Config{
		Cores:       8,
		Tenants:     &spec,
		MemoryRatio: 0.5,
		Tables:      vm.PSPTKind,
		Policy:      PolicySpec{Kind: FIFO, P: -1},
		Seed:        3,
	}
	serial, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := serial.Run.Tenants
	if ts == nil || ts.Tenants() != 10_000 {
		t.Fatalf("expected a 10,000-tenant record, got %v", ts)
	}
	if ts.Total(stats.TenantFaults) == 0 {
		t.Fatal("no tenant faulted; the run measured nothing")
	}
	// Every tenant that faulted must report a positive p99.
	checked := 0
	for i := 0; i < ts.Tenants(); i++ {
		h := ts.FaultHist(i)
		if h.Count == 0 {
			continue
		}
		if h.P99() == 0 {
			t.Fatalf("tenant %d faulted %d times but reports p99 = 0", i, h.Count)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no tenant recorded fault-service latency")
	}
	if f := ts.FairnessIndex(); f <= 0 || f > 1 {
		t.Errorf("fairness index %v outside (0, 1]", f)
	}
	// Deterministic: a repeat run is byte-identical.
	again, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(runJSON(t, serial.Run), runJSON(t, again.Run)) {
		t.Error("repeat run differs")
	}
}

// TestZeroTenantGoldenIdentity pins the other half of the tenant
// layer's promise: with Config.Tenants nil, runs on both drivers still
// reproduce the golden table bit-identically and attach no per-tenant
// record — the multi-tenant machinery is invisible to single-tenant
// runs.
func TestZeroTenantGoldenIdentity(t *testing.T) {
	vs := goldenVariants()
	for _, name := range []string{"FIFO", "CMCP"} {
		for _, driver := range drivers {
			t.Run(name+"/"+driver, func(t *testing.T) {
				res := simulateOn(t, driver, vs[name])
				if res.Run.Tenants != nil {
					t.Error("single-tenant run grew a per-tenant record")
				}
				want := goldenRuns[name]
				if res.Runtime != want.Runtime {
					t.Errorf("runtime = %d, want %d", res.Runtime, want.Runtime)
				}
				for c := 0; c < stats.NumCounters; c++ {
					if got := res.Run.Total(stats.Counter(c)); got != want.Counters[c] {
						t.Errorf("%s = %d, want %d", stats.Counter(c).Name(), got, want.Counters[c])
					}
				}
			})
		}
	}
}

// TestTenantAudited runs churning multi-tenant machines under the
// invariant auditor in both arbitration modes: Σ per-tenant residency
// must equal the device frames in use, no frame may be owned by two
// tenants, and the coremap's counts must match a full recount — every
// few thousand events, with zero violations tolerated.
func TestTenantAudited(t *testing.T) {
	for _, hard := range []bool{false, true} {
		name := "weighted"
		if hard {
			name = "hard-partition"
		}
		t.Run(name, func(t *testing.T) {
			cfg := tenantConfig(16)
			cfg.Tenants.HardPartition = hard
			aud := check.New(check.Config{Every: 1024})
			cfg.Audit = aud
			if _, err := Simulate(cfg); err != nil {
				t.Fatal(err)
			}
			if aud.Audits() == 0 {
				t.Fatal("auditor attached but never ran")
			}
			if vs := aud.Violations(); len(vs) != 0 {
				t.Fatalf("%d violations: %v", len(vs), vs)
			}
		})
	}
}

// TestTenantQuarantineHighCorruption is the satellite regression for
// the Quarantine double-retirement panic: at a corruption rate high
// enough that retries repeatedly revisit condemned frames, a
// multi-tenant run must either survive or fail with the usual wrapped
// errors — never panic and never wedge.
func TestTenantQuarantineHighCorruption(t *testing.T) {
	var rates [fault.NumKinds]float64
	rates[fault.Corrupt] = 0.5
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := tenantConfig(8)
		cfg.NoWarmup = true
		cfg.Faults = &fault.Config{Seed: seed, Rates: rates}
		res, err := Simulate(cfg)
		if err != nil {
			if !errors.Is(err, vm.ErrNoVictim) && !errors.Is(err, vm.ErrIOFailure) {
				t.Fatalf("seed %d: err = %v, want wrapped ErrNoVictim or ErrIOFailure", seed, err)
			}
			continue
		}
		if res.Run.Total(stats.QuarantinedFrames) == 0 {
			t.Errorf("seed %d: survived a 50%% corruption rate without quarantining anything", seed)
		}
	}
}
