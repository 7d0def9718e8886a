package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"cmcp"
	"cmcp/internal/policy"
	"cmcp/internal/stats"
	"cmcp/internal/vm"
)

// tinyScales keep every workload to milliseconds per config.
var tinyScales = map[string]float64{"hpc-touch": 0.01, "scan-shootdown": 0.01, "tenant-churn": 0.02, "pagesize-sweep": 0.02}

func digestsJSON(t *testing.T, p *Pinned) []byte {
	data, err := json.Marshal(p.f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func quiet(string, ...any) {}

func TestVariantOf(t *testing.T) {
	for _, seed := range []int64{0, 1, 63, 64, 65, -1, -64, 1 << 40} {
		v := variantOf(seed)
		if v < 0 || v >= Variants {
			t.Fatalf("variantOf(%d) = %d out of range", seed, v)
		}
		if variantOf(seed+Variants) != v {
			t.Fatalf("variantOf not periodic at %d", seed)
		}
	}
	if variantOf(HeldOutSeed) != HeldOutSeed {
		t.Fatalf("held-out seed %d is not its own variant", HeldOutSeed)
	}
}

// An altered counter, runtime or residency must fail the digest check.
func TestDigestCatchesAlteredCounter(t *testing.T) {
	def, _ := workloadByName("hpc-touch")
	nc := def.Build(tinyScales[def.Name], 3)[0]
	res, err := cmcp.Simulate(nc.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := computeDigests(tinyScales, []int{3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pinned.Check(def.Name, nc.Name, 3, res); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	if err := pinned.Check(def.Name, nc.Name, 4, res); err == nil {
		t.Fatal("a variant without a pinned digest passed")
	}
	for _, alter := range []struct {
		name string
		fn   func(r *cmcp.Result)
	}{
		{"counter", func(r *cmcp.Result) { r.Run.Add(7, stats.RemoteTLBInvalidations, 1) }},
		{"scanner counter", func(r *cmcp.Result) { r.Run.Add(cmcp.CoreID(r.Run.Cores), stats.ScanClears, 1) }},
		{"runtime", func(r *cmcp.Result) { r.Runtime++ }},
		{"frames", func(r *cmcp.Result) { r.Frames++ }},
		{"resident", func(r *cmcp.Result) { r.Resident-- }},
	} {
		altered := *res
		altered.Run = res.Run.Clone()
		alter.fn(&altered)
		if err := pinned.Check(def.Name, nc.Name, 3, &altered); err == nil {
			t.Errorf("altered %s passed the digest check", alter.name)
		}
	}
	b := &bench{def: def, variant: 3, cfgs: []namedConfig{nc}, pinned: pinned, frames: []int{res.Frames}, pages: []int{res.TotalPages}, tally: &tally{}}
	altered := *res
	altered.Run = res.Run.Clone()
	altered.Run.Add(0, stats.PageFaults, 1)
	if b.check(0, res, nil) != true || b.check(0, &altered, nil) != false || b.failed != 1 || b.attempted != 2 {
		t.Fatalf("check tally: attempted %d failed %d", b.attempted, b.failed)
	}
}

// The traced run measures the same program: for every config of every
// workload, the decorated policy reproduces the untraced digest.
func TestTracedDigestEqualsUntraced(t *testing.T) {
	for _, def := range Workloads {
		b, err := setup(def, tinyScales[def.Name], 5, nil, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for i, nc := range b.cfgs {
			plain, err := cmcp.Simulate(nc.Cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", def.Name, nc.Name, err)
			}
			rec := newCallRecorder()
			traced, err := cmcp.Simulate(tracedConfig(nc.Cfg, b.frames[i], b.pages[i], rec))
			if err != nil {
				t.Fatalf("%s %s traced: %v", def.Name, nc.Name, err)
			}
			dp, _ := digest(plain)
			dt, _ := digest(traced)
			if dp != dt {
				t.Errorf("%s %s: traced digest %s != untraced %s", def.Name, nc.Name, dt, dp)
			}
			if rec.n[callPTESetup] == 0 {
				t.Errorf("%s %s: decorator saw no PTESetup calls", def.Name, nc.Name)
			}
		}
	}
}

// DynamicP makes CMCP a fault observer; the decorator must stay one
// (and stay a grouper) exactly when the wrapped policy is, and the
// traced run must still match the untraced one.
func TestDecoratorForwardsOptionalInterfaces(t *testing.T) {
	def, _ := workloadByName("hpc-touch")
	base := def.Build(tinyScales[def.Name], 0)[0].Cfg
	for _, spec := range []cmcp.PolicySpec{
		{Kind: cmcp.FIFO, P: -1},
		{Kind: cmcp.LRU, P: -1},
		{Kind: cmcp.CMCP, P: 0.5},
		{Kind: cmcp.CMCP, P: 0.5, DynamicP: true},
		{Kind: cmcp.CLOCK, P: -1},
		{Kind: cmcp.LFU, P: -1},
		{Kind: cmcp.Random, P: -1},
	} {
		inner := buildBuiltin(spec, 1, nil, 64, 1024)
		outer := wrapPolicy(inner, newCallRecorder())
		for _, iface := range []struct {
			name string
			has  func(p policy.Policy) bool
		}{
			{"FaultObserver", func(p policy.Policy) bool { _, ok := p.(vm.FaultObserver); return ok }},
			{"Groups", func(p policy.Policy) bool { _, ok := p.(grouper); return ok }},
		} {
			if iface.has(inner) != iface.has(outer) {
				t.Errorf("%v dynamic=%v: %s inner %v, decorated %v", spec.Kind, spec.DynamicP, iface.name, iface.has(inner), iface.has(outer))
			}
		}
		cfg := base
		cfg.Policy = spec
		b, err := setup(def, tinyScales[def.Name], 0, nil, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		plain, err := cmcp.Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := cmcp.Simulate(tracedConfig(cfg, b.frames[0], b.pages[0], newCallRecorder()))
		if err != nil {
			t.Fatal(err)
		}
		dp, _ := digest(plain)
		dt, _ := digest(traced)
		if dp != dt {
			t.Errorf("%v dynamic=%v: traced digest %s != untraced %s", spec.Kind, spec.DynamicP, dt, dp)
		}
	}
}

// Every workload runs end to end in both modes at tiny scale, passes
// its checks, and reports exactly the metrics BENCHMARK.json declares.
func TestRunReportsDeclaredMetrics(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, program has %d", len(decl.Workloads), len(Workloads))
	}
	pinned, err := computeDigests(tinyScales, []int{2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range decl.Workloads {
		if w.Name != Workloads[i].Name {
			t.Fatalf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, Workloads[i].Name)
		}
		for _, trace := range []bool{false, true} {
			var failures []string
			res, err := Run(Options{
				Workload: w.Name, Seed: 2 + Variants, Trace: trace, Dir: t.TempDir(),
				Scales: tinyScales, Digests: digestsJSON(t, pinned), MinReps: 1,
				Report: func(f string, a ...any) {
					if strings.HasPrefix(f, "FAIL") {
						failures = append(failures, fmt.Sprintf(f, a...))
					}
				},
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Logf("%v", failures)
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// A wrong variant's digests must fail the run, not just one check.
func TestRunCountsDigestMismatches(t *testing.T) {
	pinned, err := computeDigests(tinyScales, []int{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Pin variant 1's digests under variant 2's slot.
	for _, byCfg := range pinned.f.Digests {
		for _, ds := range byCfg {
			ds[2] = ds[1]
		}
	}
	res, err := Run(Options{
		Workload: "scan-shootdown", Seed: 2, Dir: t.TempDir(),
		Scales: tinyScales, Digests: digestsJSON(t, pinned), MinReps: 1, Report: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("mismatched digests: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

func TestPinnedFileParses(t *testing.T) {
	p, err := parsePinned(pinnedJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads {
		for _, nc := range w.Build(w.Scale, HeldOutSeed) {
			for v := 0; v < Variants; v++ {
				if d, err := p.Want(w.Name, nc.Name, v); err != nil || len(d) != 24 || strings.Trim(d, "0123456789abcdef") != "" {
					t.Fatalf("%s %s variant %d: %q %v", w.Name, nc.Name, v, d, err)
				}
			}
		}
	}
}
