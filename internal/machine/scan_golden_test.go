package machine

import (
	"fmt"
	"strings"
	"testing"

	"cmcp/internal/fault"
	"cmcp/internal/obs"
	"cmcp/internal/sim"
	"cmcp/internal/stats"
	"cmcp/internal/vm"
)

// The scan golden table pins the access-bit scan's cost model where the
// main golden table cannot see it: LRU, CLOCK and LFU scanning 64 kB
// groups (charged 16 PTEs) and adaptive-size mappings, on PSPT and
// regular tables, with PSPT bookkeeping skew off and on. Under skew a
// phantom core bit can become a mapping's lowest member; the scan then
// charges 1 PTE, because the lowest core holds no PTE to read. The
// charge lands only on the scanner lane, and a few hundred cycles there
// rarely move a counter, so each entry also pins ScanCost: the sum of
// every scanner-side charge the manager reported, read from the flight
// recorder's scan-tick events (a Probe never perturbs a run).
//
// Captured before the scan resolved its mapping once; the single-resolve
// scan must reproduce every entry unchanged.

type scanGoldenRun struct {
	Runtime  sim.Cycles
	Scanner  sim.Cycles // scanner lane finish time
	ScanCost sim.Cycles // total scanner-side cost over the run
	Resident int
	Counters [stats.NumCounters]uint64
}

// String renders r as a table entry, trailing zero counters trimmed.
func (r scanGoldenRun) String() string {
	n := len(r.Counters)
	for n > 0 && r.Counters[n-1] == 0 {
		n--
	}
	cs := fmt.Sprint(r.Counters[:n])
	cs = strings.ReplaceAll(cs[1:len(cs)-1], " ", ", ")
	return fmt.Sprintf("{Runtime: %d, Scanner: %d, ScanCost: %d, Resident: %d, Counters: [stats.NumCounters]uint64{%s}}",
		r.Runtime, r.Scanner, r.ScanCost, r.Resident, cs)
}

var scanGoldenRuns = map[string]scanGoldenRun{
	"CLOCK/64k/PSPT":                {Runtime: 52579740, Scanner: 52600000, ScanCost: 4772500, Resident: 29, Counters: [stats.NumCounters]uint64{2066, 926, 9446, 2613, 6844, 0, 6844, 2066, 2039, 135397376, 133627904, 10168702, 0, 180000}},
	"CLOCK/64k/PSPT/skew":           {Runtime: 52516991, Scanner: 52525000, ScanCost: 4686260, Resident: 29, Counters: [stats.NumCounters]uint64{2078, 1125, 9467, 2671, 6994, 0, 6994, 2078, 2049, 136183808, 134283264, 9382164, 0, 180000, 62}},
	"CLOCK/64k/regularPT":           {Runtime: 95667474, Scanner: 95678100, ScanCost: 9655340, Resident: 29, Counters: [stats.NumCounters]uint64{2083, 0, 53021, 14581, 6904, 0, 6904, 2083, 2055, 136511488, 134676480, 359930, 0, 180000}},
	"CLOCK/64k/regularPT/skew":      {Runtime: 95667474, Scanner: 95678100, ScanCost: 9655340, Resident: 29, Counters: [stats.NumCounters]uint64{2083, 0, 53021, 14581, 6904, 0, 6904, 2083, 2055, 136511488, 134676480, 359930, 0, 180000}},
	"CLOCK/adaptive/PSPT":           {Runtime: 97160031, Scanner: 97160130, ScanCost: 7153800, Resident: 297, Counters: [stats.NumCounters]uint64{8120, 3099, 25372, 9512, 16054, 27, 16027, 7866, 7806, 65638400, 64167936, 7023794, 0, 180000}},
	"CLOCK/adaptive/PSPT/skew":      {Runtime: 93560530, Scanner: 93561110, ScanCost: 7037120, Resident: 308, Counters: [stats.NumCounters]uint64{7456, 3213, 24954, 9079, 16028, 15, 16013, 7190, 7136, 61874176, 60317696, 6269087, 0, 180000, 172}},
	"CLOCK/adaptive/regularPT":      {Runtime: 98945513, Scanner: 98953060, ScanCost: 9958080, Resident: 28, Counters: [stats.NumCounters]uint64{2190, 0, 54978, 15330, 7047, 0, 7047, 2190, 2162, 143523840, 141688832, 424302, 0, 180000}},
	"CLOCK/adaptive/regularPT/skew": {Runtime: 98945513, Scanner: 98953060, ScanCost: 9958080, Resident: 28, Counters: [stats.NumCounters]uint64{2190, 0, 54978, 15330, 7047, 0, 7047, 2190, 2162, 143523840, 141688832, 424302, 0, 180000}},
	"LFU/64k/PSPT":                  {Runtime: 64318949, Scanner: 64325000, ScanCost: 18501050, Resident: 29, Counters: [stats.NumCounters]uint64{2427, 482, 17586, 2636, 15731, 0, 15731, 2427, 1990, 159055872, 130416640, 11763429, 0, 180000}},
	"LFU/64k/PSPT/skew":             {Runtime: 64725965, Scanner: 64750000, ScanCost: 17893540, Resident: 29, Counters: [stats.NumCounters]uint64{2457, 501, 17527, 2680, 15680, 0, 15680, 2457, 2013, 161021952, 131923968, 11824656, 0, 180000, 36}},
	"LFU/64k/regularPT":             {Runtime: 215949585, Scanner: 215965500, ScanCost: 70136420, Resident: 29, Counters: [stats.NumCounters]uint64{2350, 0, 171026, 16450, 21820, 0, 21820, 2350, 2323, 154009600, 152240128, 1222456, 0, 180000}},
	"LFU/64k/regularPT/skew":        {Runtime: 215949585, Scanner: 215965500, ScanCost: 70136420, Resident: 29, Counters: [stats.NumCounters]uint64{2350, 0, 171026, 16450, 21820, 0, 21820, 2350, 2323, 154009600, 152240128, 1222456, 0, 180000}},
	"LFU/adaptive/PSPT":             {Runtime: 95284902, Scanner: 95300000, ScanCost: 27191030, Resident: 194, Counters: [stats.NumCounters]uint64{5651, 1785, 31255, 6447, 25052, 0, 25052, 5605, 5341, 88334336, 80551936, 9806863, 0, 180000}},
	"LFU/adaptive/PSPT/skew":        {Runtime: 102177770, Scanner: 102200000, ScanCost: 29181280, Resident: 183, Counters: [stats.NumCounters]uint64{6540, 2213, 35241, 7694, 27665, 0, 27665, 6498, 6317, 68751360, 65871872, 8226429, 0, 180000, 123}},
	"LFU/adaptive/regularPT":        {Runtime: 222472882, Scanner: 222478320, ScanCost: 70838200, Resident: 28, Counters: [stats.NumCounters]uint64{2490, 0, 176902, 17430, 22346, 0, 22346, 2490, 2458, 163184640, 161087488, 1373957, 0, 180000}},
	"LFU/adaptive/regularPT/skew":   {Runtime: 222472882, Scanner: 222478320, ScanCost: 70838200, Resident: 28, Counters: [stats.NumCounters]uint64{2490, 0, 176902, 17430, 22346, 0, 22346, 2490, 2458, 163184640, 161087488, 1373957, 0, 180000}},
	"LRU/64k/PSPT":                  {Runtime: 61631044, Scanner: 61650000, ScanCost: 18085680, Resident: 29, Counters: [stats.NumCounters]uint64{2071, 872, 17844, 2571, 15366, 0, 15366, 2071, 2042, 135725056, 133824512, 9746271, 0, 180000}},
	"LRU/64k/PSPT/skew":             {Runtime: 61384980, Scanner: 61400000, ScanCost: 17596780, Resident: 29, Counters: [stats.NumCounters]uint64{2022, 2408, 17657, 2526, 16771, 0, 16771, 2022, 1995, 132513792, 130744320, 10045552, 0, 180000, 135}},
	"LRU/64k/regularPT":             {Runtime: 208305555, Scanner: 208329540, ScanCost: 67954120, Resident: 29, Counters: [stats.NumCounters]uint64{2106, 0, 165662, 14742, 21264, 0, 21264, 2106, 2076, 138018816, 136052736, 1087122, 0, 180000}},
	"LRU/64k/regularPT/skew":        {Runtime: 208305555, Scanner: 208329540, ScanCost: 67954120, Resident: 29, Counters: [stats.NumCounters]uint64{2106, 0, 165662, 14742, 21264, 0, 21264, 2106, 2076, 138018816, 136052736, 1087122, 0, 180000}},
	"LRU/adaptive/PSPT":             {Runtime: 102771908, Scanner: 102775000, ScanCost: 28701390, Resident: 140, Counters: [stats.NumCounters]uint64{6465, 1994, 35359, 7253, 28163, 0, 28163, 6353, 6305, 60764160, 59617280, 8823985, 0, 180000}},
	"LRU/adaptive/PSPT/skew":        {Runtime: 104666235, Scanner: 104675000, ScanCost: 29967290, Resident: 266, Counters: [stats.NumCounters]uint64{6809, 2209, 36932, 7765, 29219, 0, 29219, 6571, 6517, 62296064, 60424192, 9204562, 0, 180000, 123}},
	"LRU/adaptive/regularPT":        {Runtime: 214075873, Scanner: 214092260, ScanCost: 68338500, Resident: 28, Counters: [stats.NumCounters]uint64{2233, 0, 169935, 15631, 21608, 0, 21608, 2233, 2201, 146341888, 144244736, 1074058, 0, 180000}},
	"LRU/adaptive/regularPT/skew":   {Runtime: 214075873, Scanner: 214092260, ScanCost: 68338500, Resident: 28, Counters: [stats.NumCounters]uint64{2233, 0, 169935, 15631, 21608, 0, 21608, 2233, 2201, 146341888, 144244736, 1074058, 0, 180000}},
}

func scanGoldenVariants() map[string]Config {
	vs := make(map[string]Config)
	for _, k := range []PolicyKind{LRU, CLOCK, LFU} {
		for _, size := range []string{"64k", "adaptive"} {
			for _, tables := range []vm.TableKind{vm.PSPTKind, vm.RegularPT} {
				for _, skew := range []bool{false, true} {
					cfg := goldenConfig()
					cfg.Policy = PolicySpec{Kind: k, P: -1}
					cfg.Tables = tables
					if size == "64k" {
						cfg.PageSize = sim.Size64k
					} else {
						cfg.AdaptivePageSize = true
					}
					name := fmt.Sprintf("%s/%s/%s", k, size, tables)
					if skew {
						var rates [fault.NumKinds]float64
						rates[fault.MapSkew] = 0.05
						cfg.Faults = &fault.Config{Seed: 3, Rates: rates}
						name += "/skew"
					}
					vs[name] = cfg
				}
			}
		}
	}
	return vs
}

func TestScanGoldenBitIdentical(t *testing.T) {
	for name, cfg := range scanGoldenVariants() {
		t.Run(name, func(t *testing.T) {
			rec := obs.NewRecorder(obs.Config{Events: 1 << 17})
			cfg.Probe = rec
			res, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Dropped() != 0 {
				t.Fatalf("recorder dropped %d events; ScanCost would be partial", rec.Dropped())
			}
			got := scanGoldenRun{
				Runtime:  res.Runtime,
				Scanner:  res.Run.Finish[res.Run.Cores],
				Resident: res.Resident,
			}
			for _, e := range rec.Events() {
				if e.Type == obs.EvScanTick {
					got.ScanCost += sim.Cycles(e.Arg)
				}
			}
			for c := range got.Counters {
				got.Counters[c] = res.Run.Total(stats.Counter(c))
			}
			want, ok := scanGoldenRuns[name]
			if !ok {
				t.Fatalf("no golden entry; captured:\n\t%q: %s,", name, got)
			}
			if got != want {
				t.Errorf("run drifted from golden:\n got %s\nwant %s", got, want)
			}
		})
	}
}
