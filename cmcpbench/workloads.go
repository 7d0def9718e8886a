package main

import (
	"fmt"

	"cmcp"
)

// Variants is the size of the benchmark's input space: --seed n selects
// variant n mod Variants, and every (workload, config, variant) has a
// pinned digest in digests.json. HeldOutSeed's variant is never run
// while tuning the benchmark or a change; later claims are re-checked
// on it.
const (
	Variants    = 64
	HeldOutSeed = 63
)

// variantOf maps a --seed value onto the pinned input space.
func variantOf(seed int64) int {
	return int((seed%Variants + Variants) % Variants)
}

// simSeed is the Config.Seed a variant hands the simulator. Every config
// of one workload shares it, so the configs differ only in the knob the
// workload varies (policy, tables, page size, memory ratio).
func simSeed(variant int) uint64 { return 0x5eed0000 + uint64(variant) }

// namedConfig is one simulation of a workload's run set.
type namedConfig struct {
	Name string
	Cfg  cmcp.Config
}

// workloadDef is one named benchmark workload: the run set a seed
// generates at a scale, the scale the benchmark measures, and whether
// the set runs as a journaled sweep.
type workloadDef struct {
	Name  string
	Why   string
	Scale float64
	Sweep bool
	Build func(scale float64, variant int) []namedConfig
}

// scaleOf returns the scale override for w (tests shrink workloads),
// or w's own.
func scaleOf(overrides map[string]float64, w workloadDef) float64 {
	if s, ok := overrides[w.Name]; ok {
		return s
	}
	return w.Scale
}

// Workloads is the benchmark's workload table, in BENCHMARK.json order.
var Workloads = []workloadDef{
	{
		Name:  "hpc-touch",
		Scale: 1.0,
		Why:   "BT and SCALE at B class under FIFO and CMCP on PSPT: the touch path (TLB, walks, minor faults) with no access-bit scanning",
		Build: func(scale float64, variant int) []namedConfig {
			var out []namedConfig
			for _, wl := range []cmcp.Workload{cmcp.BT(), cmcp.SCALE()} {
				wl = wl.Scale(scale)
				for _, pol := range []cmcp.PolicySpec{
					{Kind: cmcp.FIFO, P: -1},
					{Kind: cmcp.CMCP, P: 0.875},
				} {
					out = append(out, namedConfig{
						Name: wl.Name + "/" + pol.Kind.String(),
						Cfg: cmcp.Config{
							Cores:       56,
							Workload:    wl,
							MemoryRatio: cmcp.Constraint(wl.Name),
							PageSize:    cmcp.Size4k,
							Tables:      cmcp.PSPT,
							Policy:      pol,
							Seed:        simSeed(variant),
						},
					})
				}
			}
			return out
		},
	},
	{
		Name:  "scan-shootdown",
		Scale: 0.5,
		Why:   "BT under LRU and CLOCK: policy ticks scan accessed bits and send remote TLB invalidations, on PSPT and regular tables",
		Build: func(scale float64, variant int) []namedConfig {
			wl := cmcp.BT().Scale(scale)
			mk := func(name string, kind cmcp.PolicyKind, tables cmcp.TableKind) namedConfig {
				return namedConfig{Name: name, Cfg: cmcp.Config{
					Cores:       56,
					Workload:    wl,
					MemoryRatio: cmcp.Constraint(wl.Name),
					PageSize:    cmcp.Size4k,
					Tables:      tables,
					Policy:      cmcp.PolicySpec{Kind: kind, P: -1},
					Seed:        simSeed(variant),
				}}
			}
			return []namedConfig{
				mk("bt.B/LRU/PSPT", cmcp.LRU, cmcp.PSPT),
				mk("bt.B/LRU/regular", cmcp.LRU, cmcp.RegularPT),
				mk("bt.B/CLOCK/PSPT", cmcp.CLOCK, cmcp.PSPT),
			}
		},
	},
	{
		Name:  "tenant-churn",
		Scale: 1.0,
		Why:   "1000 Zipfian tenants with churn on 16 cores: fault-heavy, 1000 small policies, victim-tenant arbitration",
		Build: func(scale float64, variant int) []namedConfig {
			tenants := int(1000*scale + 0.5)
			if tenants < 4 {
				tenants = 4
			}
			mk := func(name string, kind cmcp.PolicyKind, p float64, hard bool) namedConfig {
				spec := cmcp.DefaultTenantSpec(tenants, 1.1, 250)
				spec.HardPartition = hard
				return namedConfig{Name: name, Cfg: cmcp.Config{
					Cores:       16,
					Tenants:     &spec,
					MemoryRatio: 0.5,
					PageSize:    cmcp.Size4k,
					Tables:      cmcp.PSPT,
					Policy:      cmcp.PolicySpec{Kind: kind, P: p},
					Seed:        simSeed(variant),
				}}
			}
			return []namedConfig{
				mk("tenants/CMCP/weighted", cmcp.CMCP, 0.875, false),
				mk("tenants/LRU/weighted", cmcp.LRU, -1, false),
				mk("tenants/CMCP/hard", cmcp.CMCP, 0.875, true),
			}
		},
	},
	{
		Name:  "pagesize-sweep",
		Scale: 0.05,
		Sweep: true,
		Why:   "scaled-down fig10 grid (4 apps x 4 kB, 64 kB, 2 MB, adaptive x memory ratio) as a journaled sweep, then resumed from its journal",
		Build: func(scale float64, variant int) []namedConfig {
			var out []namedConfig
			sizes := []struct {
				label    string
				size     cmcp.PageSize
				adaptive bool
			}{
				{"4kB", cmcp.Size4k, false},
				{"64kB", cmcp.Size64k, false},
				{"2MB", cmcp.Size2M, false},
				{"adaptive", cmcp.Size4k, true},
			}
			for _, wl := range cmcp.Workloads() {
				wl = wl.Scale(scale)
				for _, sz := range sizes {
					for _, ratio := range []float64{1.0, 0.5} {
						out = append(out, namedConfig{
							Name: fmt.Sprintf("%s/%s/%.0f%%", wl.Name, sz.label, ratio*100),
							Cfg: cmcp.Config{
								Cores:            56,
								Workload:         wl,
								MemoryRatio:      ratio,
								PageSize:         sz.size,
								AdaptivePageSize: sz.adaptive,
								Tables:           cmcp.PSPT,
								Policy:           cmcp.PolicySpec{Kind: cmcp.FIFO, P: -1},
								Seed:             simSeed(variant),
							},
						})
					}
				}
			}
			return out
		},
	},
}

// workloadByName resolves a --workload argument.
func workloadByName(name string) (workloadDef, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
