// Command cmcpbench is the repository benchmark of the CMCP simulator.
// It runs one named workload through the public facade (cmcp.Simulate,
// and a journaled sweep.Run for the sweep workload), checks every result
// against its pinned digest, and prints every metric by name with its
// unit; the last line of standard output is one JSON object.
//
//	bash cmcpbench/run.sh --workload hpc-touch --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-module
// metrics from a separate traced run. See cmcpbench/README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Host is the provenance block every output carries.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

func hostBlock() Host {
	return Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev reads the checked-out commit from root/.git without running
// git; a source tree that is not a repository reports "unknown".
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if rev, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(rev))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Options are one invocation's settings.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Dir      string             // scratch directory for journals and span dumps
	Scales   map[string]float64 // per-workload scale overrides (tests)
	Digests  []byte             // digests.json document; nil skips the digest check
	MinReps  int
	// Report receives the human-readable lines.
	Report func(format string, args ...any)
}

// endToEnd are the end-to-end metrics with their units, as reported
// with --trace 0.
var endToEnd = []struct{ Name, Unit string }{
	{"wall_s", "s"},
	{"touches_per_s", "touches/s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"alloc_bytes_per_touch", "B"},
	{"allocs_per_touch", "count"},
}

func main() {
	var (
		opt   Options
		trace int
		pin   string
	)
	flag.StringVar(&opt.Workload, "workload", "", "workload name")
	flag.Int64Var(&opt.Seed, "seed", 1, "workload seed (selects one of the pinned input variants)")
	flag.Float64Var(&opt.Seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-module metrics from a traced run")
	flag.StringVar(&opt.Dir, "dir", ".bench_build", "scratch directory for journals and span dumps")
	flag.StringVar(&pin, "pin", "", "re-pin: simulate every variant and write reference digests to this file")
	flag.Parse()

	if pin != "" {
		if err := pinAll(pin, min(2, runtime.NumCPU())); err != nil {
			fmt.Fprintln(os.Stderr, "cmcpbench:", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "cmcpbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	opt.Trace = trace == 1
	opt.Digests = pinnedJSON
	opt.MinReps = 3
	opt.Report = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "cmcpbench:", err)
		os.Exit(1)
	}
	res, err := Run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmcpbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmcpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// Run executes one workload invocation and returns its result line.
func Run(opt Options) (*Result, error) {
	def, ok := workloadByName(opt.Workload)
	if !ok {
		var names []string
		for _, w := range Workloads {
			names = append(names, w.Name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", opt.Workload, strings.Join(names, ", "))
	}
	// Per-config workloads run one simulation on one processor, which the
	// collector then shares, so a run does not depend on how busy a second
	// CPU of the host is. The sweep runs up to two simulations at once.
	procs := 1
	if def.Sweep {
		procs = min(2, runtime.NumCPU())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	host := hostBlock()
	variant := variantOf(opt.Seed)
	opt.Report("host nproc=%d gomaxprocs=%d cpu=%q go=%s rev=%s", host.NProc, host.GOMAXPROCS, host.CPU, host.GoVersion, host.GitRev)
	opt.Report("workload %s seed %d (variant %d of %d) trace=%v", def.Name, opt.Seed, variant, Variants, opt.Trace)

	// Each repetition starts with its own set-up, from a collected heap;
	// all set-ups of a run share one tally of checked outcomes.
	var b *bench
	var setups []float64
	resetup := func() (*bench, error) {
		runtime.GC()
		t0 := time.Now()
		nb, err := setup(def, scaleOf(opt.Scales, def), variant, opt.Digests, opt.Dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if b != nil {
			nb.tally = b.tally
		}
		b = nb
		return nb, nil
	}
	if _, err := resetup(); err != nil {
		return nil, err
	}
	defer os.Remove(b.journal)

	var metrics map[string]Metric
	var err error
	if opt.Trace {
		metrics, err = b.traced(opt, host)
	} else {
		metrics, err = untraced(opt, resetup, func() float64 { return median(setups) })
	}
	if err != nil {
		return nil, err
	}
	for _, f := range b.failures {
		opt.Report("FAIL %s", f)
	}
	opt.Report("fail_ratio %d/%d", b.failed, b.attempted)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		opt.Report("%-28s %14s %s", n, strconv.FormatFloat(metrics[n].Value, 'g', 6, 64), metrics[n].Unit)
	}
	return &Result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}, nil
}

// untraced repeats set-up and the run set until the measuring time is
// spent (at least MinReps times) and reports the end-to-end metrics:
// per-config medians for time, per-repetition medians for the rest.
func untraced(opt Options, resetup func() (*bench, error), setupS func() float64) (map[string]Metric, error) {
	h := startHeapSampler()
	defer h.close()
	deadline := time.Now().Add(time.Duration(opt.Seconds * float64(time.Second)))
	var b *bench
	var reps []repStats
	for len(reps) < opt.MinReps || time.Now().Before(deadline) {
		nb, err := resetup()
		if err != nil {
			return nil, err
		}
		b = nb
		reps = append(reps, b.runSet(h))
	}
	// Per-config medians; a sweep has one entry, its whole run.
	var wall float64
	medians := make([]time.Duration, len(reps[0].wall))
	for i := range medians {
		col := make([]time.Duration, len(reps))
		for r := range reps {
			col[r] = reps[r].wall[i]
		}
		medians[i] = durMedian(col)
		wall += medians[i].Seconds()
	}
	var bytesPer, allocsPer, peak, resume []float64
	var touches uint64
	for _, r := range reps {
		touches = max(touches, r.touches)
		if r.touches > 0 {
			bytesPer = append(bytesPer, float64(r.allocBytes)/float64(r.touches))
			allocsPer = append(allocsPer, float64(r.allocs)/float64(r.touches))
		}
		peak = append(peak, float64(r.peakHeap)/(1<<20))
		resume = append(resume, r.resume.Seconds())
	}
	if b.def.Sweep {
		opt.Report("sweep median %.4fs, resume_s %.6f s (journal re-run, 0 runs executed), over %d runs", wall, median(resume), len(reps))
	} else {
		for i, nc := range b.cfgs {
			opt.Report("config %-26s median %.4fs over %d runs", nc.Name, medians[i].Seconds(), len(reps))
		}
	}
	values := map[string]float64{
		"wall_s":                wall,
		"touches_per_s":         float64(touches) / wall,
		"setup_s":               setupS(),
		"peak_heap_mb":          median(peak),
		"alloc_bytes_per_touch": median(bytesPer),
		"allocs_per_touch":      median(allocsPer),
	}
	metrics := map[string]Metric{}
	for _, m := range endToEnd {
		metrics[m.Name] = Metric{values[m.Name], m.Unit}
	}
	return metrics, nil
}
