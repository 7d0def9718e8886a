package machine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cmcp/internal/check"
	"cmcp/internal/fault"
	"cmcp/internal/obs"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/vm"
	"cmcp/internal/workload"
)

// The tests in this file hold every run to the simulator's two
// determinism promises across a wide configuration space. A run is
// bit-identical whichever driver executes it: "serial" calls Simulate
// directly, "parallel" goes through RunMany, the parallel sweep driver,
// on pooled per-worker scratch arenas. And every run passes the
// invariant auditor — TLB coherence and the same-page memo check
// included — at a fine audit period.

// auditEvery is the audit period of the observed runs below: fine
// enough that every run is audited hundreds of times, so a memo or TLB
// that drifts from the page tables is caught close to where it drifts.
const auditEvery = 256

// drivers names the two ways a run executes, in subtest labels.
var drivers = []string{"serial", "parallel"}

// simulateOn runs cfg on the named driver and fails the test on error.
func simulateOn(t *testing.T, driver string, cfg Config) *Result {
	t.Helper()
	if driver == "serial" {
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		return res
	}
	results, err := RunMany([]Config{cfg}, 1)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	return results[0]
}

// compareResults requires the two results to be bit-identical in every
// observable: runtime, per-core counters (scanner row included), finish
// times, resident count, quarantined frames, sharing histogram and
// latency histograms.
func compareResults(t *testing.T, serial, parallel *Result) {
	t.Helper()
	if serial.Runtime != parallel.Runtime {
		t.Errorf("runtime: serial %d, parallel %d", serial.Runtime, parallel.Runtime)
	}
	if serial.Resident != parallel.Resident {
		t.Errorf("resident: serial %d, parallel %d", serial.Resident, parallel.Resident)
	}
	if serial.Quarantined != parallel.Quarantined {
		t.Errorf("quarantined: serial %d, parallel %d", serial.Quarantined, parallel.Quarantined)
	}
	for core := 0; core <= serial.Run.Cores; core++ {
		for c := 0; c < stats.NumCounters; c++ {
			s := serial.Run.Get(sim.CoreID(core), stats.Counter(c))
			p := parallel.Run.Get(sim.CoreID(core), stats.Counter(c))
			if s != p {
				t.Errorf("core %d %s: serial %d, parallel %d", core, stats.Counter(c).Name(), s, p)
			}
		}
		if s, p := serial.Run.Finish[core], parallel.Run.Finish[core]; s != p {
			t.Errorf("core %d finish: serial %d, parallel %d", core, s, p)
		}
	}
	if len(serial.Sharing) != len(parallel.Sharing) {
		t.Errorf("sharing: serial %v, parallel %v", serial.Sharing, parallel.Sharing)
	} else {
		for i := range serial.Sharing {
			if serial.Sharing[i] != parallel.Sharing[i] {
				t.Errorf("sharing[%d]: serial %d, parallel %d", i, serial.Sharing[i], parallel.Sharing[i])
			}
		}
	}
	switch {
	case (serial.Run.Hists == nil) != (parallel.Run.Hists == nil):
		t.Error("hists: attached on one driver only")
	case serial.Run.Hists != nil && *serial.Run.Hists != *parallel.Run.Hists:
		t.Error("hists differ between drivers")
	}
}

// compareTraces requires identical flight-recorder event sequences.
func compareTraces(t *testing.T, serial, parallel *obs.Recorder) {
	t.Helper()
	se, pe := serial.Events(), parallel.Events()
	if serial.Dropped() != parallel.Dropped() {
		t.Errorf("trace dropped: serial %d, parallel %d", serial.Dropped(), parallel.Dropped())
	}
	if len(se) != len(pe) {
		t.Errorf("trace length: serial %d, parallel %d", len(se), len(pe))
		return
	}
	for i := range se {
		if se[i] != pe[i] {
			t.Errorf("trace[%d]: serial %+v, parallel %+v", i, se[i], pe[i])
			return
		}
	}
}

// observed returns cfg with a fresh flight recorder and a fresh auditor
// at auditEvery attached; neither may serve more than one run.
func observed(cfg Config) Config {
	cfg.Probe = obs.NewRecorder(obs.Config{})
	cfg.Audit = check.New(check.Config{Every: auditEvery})
	return cfg
}

// runBoth runs one subtest per config, named by names, in which the
// config, fully observed, must produce bit-identical Results and trace
// event sequences on both drivers. The parallel side runs the configs
// in small concurrent RunMany batches (a few recorders alive at once).
func runBoth(t *testing.T, names []string, cfgs []Config) {
	t.Helper()
	const batch = 4
	for lo := 0; lo < len(cfgs); lo += batch {
		hi := min(lo+batch, len(cfgs))
		pooled := make([]Config, 0, hi-lo)
		for _, cfg := range cfgs[lo:hi] {
			pooled = append(pooled, observed(cfg))
		}
		results, err := RunMany(pooled, 2)
		for i := lo; i < hi; i++ {
			t.Run(names[i], func(t *testing.T) {
				parallel := results[i-lo]
				if parallel == nil {
					t.Fatalf("parallel: %v", err)
				}
				sCfg := observed(cfgs[i])
				serial, serr := Simulate(sCfg)
				if serr != nil {
					t.Fatalf("serial: %v", serr)
				}
				if sCfg.Audit.Audits() < 2 {
					t.Errorf("only %d audits ran", sCfg.Audit.Audits())
				}
				compareResults(t, serial, parallel)
				compareTraces(t, sCfg.Probe, pooled[i-lo].Probe)
			})
		}
	}
}

// TestParallelGoldenBitIdentical runs every golden variant as one
// concurrent RunMany batch — histograms on, auditor and flight recorder
// attached — and requires the pinned table bit-for-bit.
func TestParallelGoldenBitIdentical(t *testing.T) {
	vs := goldenVariants()
	names := make([]string, 0, len(vs))
	for name := range vs {
		names = append(names, name)
	}
	sort.Strings(names)
	cfgs := make([]Config, len(names))
	for i, name := range names {
		cfg := observed(vs[name])
		cfg.Hist = true
		cfgs[i] = cfg
	}
	results, err := RunMany(cfgs, 2)
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			res := results[i]
			if res == nil {
				t.Fatal(err)
			}
			want := goldenRuns[name]
			if res.Runtime != want.Runtime {
				t.Errorf("runtime = %d, want %d", res.Runtime, want.Runtime)
			}
			if res.Resident != want.Resident {
				t.Errorf("resident = %d, want %d", res.Resident, want.Resident)
			}
			for c := 0; c < stats.NumCounters; c++ {
				if got := res.Run.Total(stats.Counter(c)); got != want.Counters[c] {
					t.Errorf("%s = %d, want %d", stats.Counter(c).Name(), got, want.Counters[c])
				}
			}
		})
	}
}

// TestParallelGoldenFaultInjection runs golden variants under
// deterministic fault injection on both drivers, auditor attached, and
// requires bit-identical outcomes (including quarantined frames and the
// recovery counters). Under PSPT the MapSkew rate makes the audit
// cadence Result-bearing — the auditor's PSPT pass is the recovery
// trigger for injected skew — which is why both sides audit alike.
func TestParallelGoldenFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: differential matrix covers fault injection")
	}
	var rates [fault.NumKinds]float64
	for i := range rates {
		rates[i] = 0.02
	}
	names := []string{"FIFO", "CMCP", "FIFO/regularPT"}
	cfgs := make([]Config, len(names))
	for i, name := range names {
		cfgs[i] = goldenVariants()[name]
		cfgs[i].Faults = &fault.Config{Seed: 99, Rates: rates}
	}
	runBoth(t, names, cfgs)
}

// TestParallelDifferential is the randomized property harness: a
// deterministic matrix over six policies × faults on/off × hist on/off,
// a second one over six policies × table kind × page size (4 kB, 64 kB,
// adaptive), plus randomized configurations varying cores, scale,
// memory ratio, page size, table kind, adaptive sizing, rebuild period
// and seeds. Every configuration runs audited every auditEvery events
// with a flight recorder attached, and must produce byte-identical
// Results and trace event sequences on both drivers.
func TestParallelDifferential(t *testing.T) {
	var names []string
	var cfgs []Config
	add := func(name string, cfg Config) {
		names = append(names, name)
		cfgs = append(cfgs, cfg)
	}
	base := func(k PolicyKind) Config {
		return Config{
			Cores:       6,
			Workload:    workload.SCALE().Scale(0.02),
			MemoryRatio: 0.5,
			PageSize:    sim.Size4k,
			Tables:      vm.PSPTKind,
			Policy:      PolicySpec{Kind: k, P: -1},
			Seed:        11,
		}
	}

	// Matrix: 6 policies × faults × hist = 24 configurations.
	kinds := []PolicyKind{FIFO, LRU, CMCP, CLOCK, LFU, Random}
	for _, k := range kinds {
		for _, withFaults := range []bool{false, true} {
			for _, withHist := range []bool{false, true} {
				cfg := base(k)
				cfg.Hist = withHist
				if withFaults {
					cfg.Faults = fault.Uniform(123, 0.01)
				}
				add(fmt.Sprintf("%v/faults=%v/hist=%v", k, withFaults, withHist), cfg)
			}
		}
	}

	// Matrix: 6 policies × tables × page size, minus the PSPT/4 kB cell
	// above = 30 configurations, hist alternating.
	for _, k := range kinds {
		for _, tk := range []vm.TableKind{vm.PSPTKind, vm.RegularPT} {
			for _, size := range []string{"4k", "64k", "adaptive"} {
				if tk == vm.PSPTKind && size == "4k" {
					continue
				}
				cfg := base(k)
				cfg.Tables = tk
				cfg.Hist = len(cfgs)%2 == 0
				switch size {
				case "64k":
					cfg.PageSize = sim.Size64k
				case "adaptive":
					cfg.AdaptivePageSize = true
				}
				add(fmt.Sprintf("%v/%v/%s", k, tk, size), cfg)
			}
		}
	}

	// Randomized: 36 more draws over the wider config space.
	rng := rand.New(rand.NewSource(20260807))
	tables := []vm.TableKind{vm.PSPTKind, vm.RegularPT}
	sizes := []sim.PageSize{sim.Size4k, sim.Size64k}
	for i := 0; i < 36; i++ {
		k := kinds[rng.Intn(len(kinds))]
		cfg := Config{
			Cores:       2 + rng.Intn(9),
			Workload:    workload.SCALE().Scale(0.01 + rng.Float64()*0.02),
			MemoryRatio: 0.3 + rng.Float64()*0.6,
			PageSize:    sizes[rng.Intn(len(sizes))],
			Tables:      tables[rng.Intn(len(tables))],
			Policy:      PolicySpec{Kind: k, P: -1},
			Seed:        rng.Uint64(),
			Hist:        rng.Intn(2) == 0,
			NoWarmup:    rng.Intn(4) == 0,
		}
		if k == CMCP && rng.Intn(2) == 0 {
			cfg.Policy.P = rng.Float64()
		}
		if cfg.Tables == vm.PSPTKind && rng.Intn(4) == 0 {
			cfg.PSPTRebuildPeriod = sim.Cycles(100_000 + rng.Intn(400_000))
		}
		if rng.Intn(5) == 0 {
			cfg.AdaptivePageSize = true
			cfg.PageSize = sim.Size4k
		}
		// Injected frame corruption permanently quarantines frames; under
		// multi-frame spans (64 kB pages, adaptive sizing) or high rates a
		// small device legitimately runs out of allocatable frames and the
		// run errors. Keep injection on the plain-4 kB draws at rates the
		// footprint survives.
		if cfg.PageSize == sim.Size4k && !cfg.AdaptivePageSize && rng.Intn(3) == 0 {
			cfg.Faults = fault.Uniform(rng.Uint64(), 0.002+rng.Float64()*0.008)
		}
		add(fmt.Sprintf("rand%02d/%v", i, k), cfg)
	}

	if testing.Short() {
		// Every 5th configuration: a cross-section of all three groups.
		var sn []string
		var sc []Config
		for i := 0; i < len(cfgs); i += 5 {
			sn = append(sn, names[i])
			sc = append(sc, cfgs[i])
		}
		names, cfgs = sn, sc
	}
	runBoth(t, names, cfgs)
}
