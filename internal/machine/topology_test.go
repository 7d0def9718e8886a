package machine

import (
	"bytes"
	"testing"

	"cmcp/internal/check"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/vm"
)

// TestSingleSocketGoldenIdentity pins the NUMA layer's bit-identity
// contract: a nil topology and an explicit single-socket topology both
// reproduce the golden table exactly, on both drivers, with every NUMA
// counter zero — the multi-socket machinery is invisible to flat runs.
// (Mirrors TestZeroTenantGoldenIdentity for the tenant layer.)
func TestSingleSocketGoldenIdentity(t *testing.T) {
	vs := goldenVariants()
	for _, name := range []string{"FIFO", "CMCP"} {
		for _, topo := range []*sim.Topology{nil, sim.DefaultTopology(1, 8)} {
			label := name + "/nil"
			if topo != nil {
				label = name + "/1x8"
			}
			for _, driver := range drivers {
				t.Run(label+"/"+driver, func(t *testing.T) {
					cfg := vs[name]
					cfg.Topology = topo
					res := simulateOn(t, driver, cfg)
					want := goldenRuns[name]
					if res.Runtime != want.Runtime {
						t.Errorf("runtime = %d, want %d", res.Runtime, want.Runtime)
					}
					for c := 0; c < stats.NumCounters; c++ {
						if got := res.Run.Total(stats.Counter(c)); got != want.Counters[c] {
							t.Errorf("%s = %d, want %d", stats.Counter(c).Name(), got, want.Counters[c])
						}
					}
					for _, c := range []stats.Counter{
						stats.FilteredShootdowns, stats.CrossSocketIPIs, stats.RemoteWalks,
						stats.RemotePTConsults, stats.ReplicaSyncs, stats.PTMigrations,
					} {
						if got := res.Run.Total(c); got != 0 {
							t.Errorf("flat run counted %s = %d, want 0", c.Name(), got)
						}
					}
				})
			}
		}
	}
}

// TestTopologyEnginesBitIdentical extends the driver-equivalence
// promise to multi-socket machines: a 2-socket run — PSPT with
// replica migration and regular tables with remote walks — must be
// bit-identical whether Simulate runs it directly or RunMany runs it on
// a pooled scratch arena, whole Run record included.
func TestTopologyEnginesBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tables vm.TableKind
	}{{"pspt", vm.PSPTKind}, {"regular", vm.RegularPT}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goldenConfig()
			cfg.Policy = PolicySpec{Kind: CMCP, P: -1}
			cfg.Tables = tc.tables
			cfg.Topology = sim.DefaultTopology(2, 4)
			serial := simulateOn(t, "serial", cfg)
			parallel := simulateOn(t, "parallel", cfg)
			if serial.Runtime != parallel.Runtime {
				t.Errorf("runtime: serial %d, parallel %d", serial.Runtime, parallel.Runtime)
			}
			if a, b := runJSON(t, serial.Run), runJSON(t, parallel.Run); !bytes.Equal(a, b) {
				t.Error("2-socket records differ between drivers")
			}
		})
	}
}

// TestShootdownFilteringReducesCrossSocketIPIs is the tentpole's
// measurable claim: on a 2-socket machine, PSPT's precise core maps
// filter shootdown targets down to actual mappers, so the cross-socket
// IPI count drops below the regular shared table's all-cores broadcast
// — and the filtered-target counter is live on PSPT, dead on regular
// tables (a broadcast filters nothing).
func TestShootdownFilteringReducesCrossSocketIPIs(t *testing.T) {
	run := func(tables vm.TableKind) *Result {
		cfg := goldenConfig()
		cfg.Policy = PolicySpec{Kind: FIFO, P: -1}
		cfg.Tables = tables
		cfg.Topology = sim.DefaultTopology(2, 4)
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pspt := run(vm.PSPTKind)
	regular := run(vm.RegularPT)
	pIPI := pspt.Run.Total(stats.CrossSocketIPIs)
	rIPI := regular.Run.Total(stats.CrossSocketIPIs)
	if rIPI == 0 {
		t.Fatal("regular-PT broadcast crossed no socket boundary; the workload exercised nothing")
	}
	if pIPI >= rIPI {
		t.Errorf("PSPT cross-socket IPIs = %d, want < regular-PT broadcast's %d", pIPI, rIPI)
	}
	if got := pspt.Run.Total(stats.FilteredShootdowns); got == 0 {
		t.Error("PSPT filtered no shootdown targets")
	}
	if got := regular.Run.Total(stats.FilteredShootdowns); got != 0 {
		t.Errorf("regular PT filtered %d shootdown targets; a broadcast filters nothing", got)
	}
	if got := regular.Run.Total(stats.RemoteWalks); got == 0 {
		t.Error("regular PT on socket 1 charged no remote walks")
	}
	if got := pspt.Run.Total(stats.RemoteWalks); got != 0 {
		t.Errorf("PSPT charged %d remote walks; its tables are socket-local", got)
	}
}

// TestTopologyAudited runs a 2-socket PSPT machine under the invariant
// auditor: the numa module's replica-coherence checks (Home validity,
// Replicas covering every mapping core's socket) must pass with zero
// violations while migrations actually occur.
func TestTopologyAudited(t *testing.T) {
	cfg := goldenConfig()
	cfg.Policy = PolicySpec{Kind: CMCP, P: -1}
	cfg.Topology = sim.DefaultTopology(2, 4)
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
}

// TestTopologyValidateRejected pins the loud-failure contract for
// malformed topologies: a socket grid too small for the core count
// fails Simulate up front, not mid-run.
func TestTopologyValidateRejected(t *testing.T) {
	cfg := goldenConfig()
	cfg.Policy = PolicySpec{Kind: FIFO, P: -1}
	cfg.Topology = sim.DefaultTopology(2, 2) // 4 seats for 8 cores
	if _, err := Simulate(cfg); err == nil {
		t.Fatal("undersized topology accepted")
	}
}
