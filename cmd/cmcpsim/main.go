// Command cmcpsim drives the CMCP many-core paging simulator.
//
// Reproduce the paper's evaluation (figures and table):
//
//	cmcpsim -exp all                 # everything, full scale
//	cmcpsim -exp fig7 -scale 0.25    # one experiment, smaller/faster
//	cmcpsim -exp table1 -csv         # machine-readable output
//
// Extension experiments (beyond the paper) run by ID:
//
//	cmcpsim -exp numa                      # 2-socket shootdown-filtering grid
//	cmcpsim -exp tenants -tenants 64 -zipf-s 1.2 -churn 500
//
// Multi-socket single runs:
//
//	cmcpsim -run -cores 60 -sockets 2 -policy CMCP
//
// Long sweeps checkpoint to a journal (resume after a crash picks up
// where it left off) and can be split across processes by shard:
//
//	cmcpsim -exp all -journal sweep.jsonl -progress
//	cmcpsim -exp all -journal s0.jsonl -shard 0/2   # CI job A
//	cmcpsim -exp all -journal s1.jsonl -shard 1/2   # CI job B
//	cmcpsim -exp all -journal s0.jsonl -journal-import s1.jsonl  # merge
//
// Or run the sweep as a crash-tolerant coordinator with a worker
// fleet: workers lease runs over HTTP, heartbeat while simulating, and
// any kill -9 or coordinator restart is recovered from the journal —
// the merged result is bit-identical to a local sweep:
//
//	cmcpsim -exp fig7 -journal sweep.jsonl -coordinate 127.0.0.1:9152
//	cmcpsim -worker http://127.0.0.1:9152     # as many as you like
//	cmcpsim -compact-journal sweep.jsonl      # dedup after retries
//
// Run a single simulation:
//
//	cmcpsim -run -workload cg.B -cores 56 -ratio 0.4 -policy CMCP -p 0.25
//
// Record an event trace and time series of a run (open the .json in
// Perfetto / chrome://tracing; replay the .jsonl with cmcptrace):
//
//	cmcpsim -run -policy CMCP -trace -trace-out run.json -sample-every 100000
//
// Host-throughput benchmarks live in cmcpbench (bash cmcpbench/run.sh).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cmcp"
	"cmcp/internal/plot"
)

// startTelemetry starts the live telemetry server when -serve is set.
// It returns the server (nil when disabled) and a stop function that
// holds the server open for the grace period — so a scraper arriving
// just as a fast sweep finishes still sees the final state — and then
// shuts it down.
func startTelemetry(f *cliFlags, progress *cmcp.SweepProgress) (*cmcp.TelemetryServer, func(), error) {
	if f.serve == "" {
		return nil, func() {}, nil
	}
	srv := cmcp.NewTelemetryServer(progress)
	if err := srv.Start(f.serve); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "[telemetry] serving http://%s/ (/metrics, /progress, /debug/pprof)\n", srv.Addr())
	stop := func() {
		if f.serveGrace > 0 {
			fmt.Fprintf(os.Stderr, "[telemetry] holding server open for %s\n", f.serveGrace)
			time.Sleep(f.serveGrace)
		}
		srv.Close()
	}
	return srv, stop, nil
}

// cliFlags holds every cmcpsim flag value.
type cliFlags struct {
	exp, shard, journal, journalImport, scheduleFrom string
	quick, csv, plot, progress                       bool
	scale                                            float64
	seed                                             uint64
	parallel, repeats                                int

	coordinate         string
	leaseTTL, linger   time.Duration
	maxAttempts        int
	worker, workerName string

	compactJournal, compactOut string

	run                                bool
	workload, policy, tables, pageSize string
	cores                              int
	ratio, p                           float64
	dynamicP                           bool
	tenants, churn, sockets            int
	zipfS                              float64
	faultRate                          float64
	faultSeed                          uint64
	hist                               bool
	serve                              string
	serveGrace                         time.Duration
	trace                              bool
	traceOut                           string
	sampleEvery                        uint64
}

// newFlagSet binds every cmcpsim flag to a fresh cliFlags.
func newFlagSet(output io.Writer) (*flag.FlagSet, *cliFlags) {
	fs := flag.NewFlagSet("cmcpsim", flag.ContinueOnError)
	fs.SetOutput(output)
	f := &cliFlags{}
	fs.StringVar(&f.exp, "exp", "", "experiment to regenerate: fig6|fig7|fig8|fig9|fig10|table1|sense|all, or an extension: numa|tenants")
	fs.BoolVar(&f.quick, "quick", false, "with -exp: shrink sweeps (fewer core counts and ratio points)")
	fs.Float64Var(&f.scale, "scale", 1.0, "with -run or -exp: workload footprint/work multiplier")
	fs.Uint64Var(&f.seed, "seed", 42, "with -run or -exp: random seed")
	fs.BoolVar(&f.csv, "csv", false, "with -exp: emit CSV instead of aligned text")
	fs.BoolVar(&f.plot, "plot", false, "with -exp: render numeric tables as ASCII charts too")
	fs.IntVar(&f.parallel, "parallel", 0, "with -exp: max concurrent simulations (0 = GOMAXPROCS)")
	fs.IntVar(&f.repeats, "repeats", 1, "with -exp: replicate each run under N seeds and average")

	fs.StringVar(&f.journal, "journal", "", "with -exp: checkpoint completed runs to this JSONL journal and resume from it")
	fs.StringVar(&f.journalImport, "journal-import", "", "with -exp: comma-separated read-only journals to merge (other shards' output)")
	fs.StringVar(&f.shard, "shard", "", "with -exp: run only shard i of n, as \"i/n\"; partitions the grid by content key")
	fs.BoolVar(&f.progress, "progress", false, "with -exp: report sweep progress (runs done/total, runs/s, ETA) on stderr")
	fs.StringVar(&f.scheduleFrom, "schedule-from", "", "with -exp: order pending runs longest-first using runtimes recorded in this journal (a previous run's -journal)")

	fs.StringVar(&f.coordinate, "coordinate", "", "with -exp: serve the sweep as a coordinator on this address (e.g. 127.0.0.1:9152) and dispatch runs to -worker processes instead of executing locally; requires -journal")
	fs.DurationVar(&f.leaseTTL, "lease-ttl", 15*time.Second, "with -coordinate: lease expiry without a heartbeat")
	fs.IntVar(&f.maxAttempts, "max-attempts", 3, "with -coordinate: failed leases per key before it is quarantined as poisoned")
	fs.DurationVar(&f.linger, "linger", 3*time.Second, "with -coordinate: keep serving this long after the sweep finishes so workers hear 'done' and exit cleanly")

	fs.StringVar(&f.worker, "worker", "", "run as a sweep worker against this coordinator URL (e.g. http://host:9152) until the sweep is done")
	fs.StringVar(&f.workerName, "worker-name", "", "with -worker: name reported in leases and logs (default worker-<pid>)")

	fs.StringVar(&f.compactJournal, "compact-journal", "", "compact this sweep journal (keep the last entry per key, drop torn lines, sort) and exit")
	fs.StringVar(&f.compactOut, "compact-out", "", "with -compact-journal: output path (default: compact in place)")

	fs.BoolVar(&f.run, "run", false, "run a single simulation instead of an experiment")
	fs.StringVar(&f.workload, "workload", "SCALE", "with -run: workload: bt.B|lu.B|cg.B|SCALE")
	fs.IntVar(&f.cores, "cores", 56, "with -run: application cores")
	fs.Float64Var(&f.ratio, "ratio", 0.5, "with -run: device memory as a fraction of the footprint")
	fs.StringVar(&f.policy, "policy", "CMCP", "with -run: policy: FIFO|LRU|CMCP|CLOCK|LFU|Random")
	fs.Float64Var(&f.p, "p", -1, "with -run -policy CMCP: prioritized-pages ratio (-1 = default)")
	fs.BoolVar(&f.dynamicP, "dynamic-p", false, "with -run -policy CMCP: enable the fault-feedback p tuner")
	fs.StringVar(&f.tables, "tables", "pspt", "with -run: page tables: pspt|regular")
	fs.StringVar(&f.pageSize, "pagesize", "4k", "with -run: page size: 4k|64k|2m|adaptive")

	fs.IntVar(&f.tenants, "tenants", 0, "with -run or -exp tenants: simulate N tenant address spaces contending for the frame pool (0 = single-tenant -workload run)")
	fs.Float64Var(&f.zipfS, "zipf-s", 1.1, "with -tenants: Zipfian tenant-popularity exponent (higher = more skew)")
	fs.IntVar(&f.churn, "churn", 0, "with -tenants: rotate the hot tenant set every N touches per core (0 = no churn)")

	fs.IntVar(&f.sockets, "sockets", 1, "with -run or -exp: NUMA sockets; cores spread evenly across per-socket IPI rings (1 = flat ring, bit-identical to pre-NUMA builds)")

	fs.Float64Var(&f.faultRate, "fault-rate", 0, "with -run or -exp: per-event device fault injection rate for every fault kind (0 = off)")
	fs.Uint64Var(&f.faultSeed, "fault-seed", 1, "with -fault-rate: fault injector seed (independent of -seed)")

	fs.BoolVar(&f.hist, "hist", false, "with -run or -exp: record latency/fan-out histograms (read-only; counters stay bit-identical)")
	fs.StringVar(&f.serve, "serve", "", "with -run or -exp: serve live telemetry (/metrics, /progress, /debug/pprof) on this address, e.g. 127.0.0.1:9151")
	fs.DurationVar(&f.serveGrace, "serve-grace", 0, "with -serve: keep the telemetry server up this long after the work finishes, so a scraper cannot race a fast run")

	fs.BoolVar(&f.trace, "trace", false, "with -run: record a flight-recorder event trace")
	fs.StringVar(&f.traceOut, "trace-out", "trace.json", "with -trace or -sample-every: trace output path: .json = Chrome trace_event (Perfetto), .jsonl = JSON Lines")
	fs.Uint64Var(&f.sampleEvery, "sample-every", 0, "with -run: time-series sampling interval in cycles (0 = off); CSV lands next to -trace-out")
	return fs, f
}

// mode is the one thing a cmcpsim invocation does.
type mode string

const (
	modeCompact mode = "-compact-journal"
	modeWorker  mode = "-worker"
	modeRun     mode = "-run"
	modeExp     mode = "-exp"
)

// modeFlags is the consumed-flag set of each mode: the flags that mode
// reads. Any other flag set on the command line would be silently
// ignored, so it is an error instead.
var modeFlags = map[mode][]string{
	modeCompact: {"compact-journal", "compact-out"},
	modeWorker:  {"worker", "worker-name"},
	modeRun: {"run", "workload", "cores", "ratio", "policy", "p", "dynamic-p", "tables", "pagesize",
		"scale", "seed", "tenants", "zipf-s", "churn", "sockets", "fault-rate", "fault-seed",
		"hist", "serve", "serve-grace", "trace", "trace-out", "sample-every"},
	modeExp: {"exp", "quick", "scale", "seed", "csv", "plot", "parallel", "repeats",
		"journal", "journal-import", "shard", "progress", "schedule-from",
		"coordinate", "lease-ttl", "max-attempts", "linger",
		"tenants", "zipf-s", "churn", "sockets", "fault-rate", "fault-seed", "hist", "serve", "serve-grace"},
}

// flagRule narrows a consumed flag: the mode reads it only when ok
// holds for the rest of the command line.
type flagRule struct {
	flag   string
	ok     func(*cliFlags) bool
	reason string
}

var flagRules = []flagRule{
	{"workload", func(f *cliFlags) bool { return f.tenants == 0 }, "is ignored with -tenants (each tenant is its own address space)"},
	{"zipf-s", func(f *cliFlags) bool { return f.tenants > 0 }, "needs -tenants"},
	{"churn", func(f *cliFlags) bool { return f.tenants > 0 }, "needs -tenants"},
	{"p", func(f *cliFlags) bool { return strings.EqualFold(f.policy, "CMCP") }, "only applies to -policy CMCP"},
	{"dynamic-p", func(f *cliFlags) bool { return strings.EqualFold(f.policy, "CMCP") }, "only applies to -policy CMCP"},
	{"fault-seed", func(f *cliFlags) bool { return f.faultRate > 0 }, "needs -fault-rate"},
	{"serve-grace", func(f *cliFlags) bool { return f.serve != "" }, "needs -serve"},
	{"trace-out", func(f *cliFlags) bool { return f.trace || f.sampleEvery > 0 }, "needs -trace or -sample-every"},
	{"lease-ttl", func(f *cliFlags) bool { return f.coordinate != "" }, "needs -coordinate"},
	{"max-attempts", func(f *cliFlags) bool { return f.coordinate != "" }, "needs -coordinate"},
	{"linger", func(f *cliFlags) bool { return f.coordinate != "" }, "needs -coordinate"},
	{"csv", func(f *cliFlags) bool { return f.shard == "" }, "is ignored with -shard (a shard's only output is its journal)"},
	{"plot", func(f *cliFlags) bool { return f.shard == "" && !f.csv }, "is ignored with -shard or -csv"},
}

// errNoMode reports a command line that selects no mode.
var errNoMode = errors.New("no mode selected: use -exp, -run, -worker or -compact-journal")

// parseArgs parses a command line, picks its mode, and rejects every
// flag the mode would not read.
func parseArgs(args []string, output io.Writer) (*cliFlags, mode, error) {
	fs, f := newFlagSet(output)
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}
	if fs.NArg() > 0 {
		return nil, "", fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	var m mode
	switch {
	case f.compactJournal != "":
		m = modeCompact
	case f.worker != "":
		m = modeWorker
	case f.run:
		m = modeRun
	case f.exp != "":
		m = modeExp
	default:
		fs.Usage()
		return nil, "", errNoMode
	}
	consumed := make(map[string]bool)
	for _, name := range modeFlags[m] {
		consumed[name] = true
	}
	var err error
	fs.Visit(func(fl *flag.Flag) {
		if err != nil {
			return
		}
		if !consumed[fl.Name] {
			err = fmt.Errorf("-%s has no effect with %s", fl.Name, m)
			return
		}
		for _, r := range flagRules {
			if r.flag == fl.Name && !r.ok(f) {
				err = fmt.Errorf("-%s %s", fl.Name, r.reason)
				return
			}
		}
	})
	if err != nil {
		return nil, "", err
	}
	if m == modeExp {
		_, n, err := parseShard(f.shard)
		switch {
		case err != nil:
			return nil, "", err
		case n > 1 && f.journal == "":
			return nil, "", fmt.Errorf("-shard requires -journal: a shard's only output is its journal")
		case f.coordinate != "" && f.journal == "":
			// The journal is the coordinator's only durable state; a
			// coordinated sweep without one could not survive a restart.
			return nil, "", fmt.Errorf("-coordinate requires -journal: the journal is the sweep's durable state")
		case f.coordinate != "" && n > 1:
			return nil, "", fmt.Errorf("-coordinate replaces -shard: the coordinator partitions work by lease, not by shard")
		}
	}
	return f, m, nil
}

func main() {
	f, m, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmcpsim:", err)
		os.Exit(2)
	}

	var faults *cmcp.FaultConfig
	if f.faultRate > 0 {
		faults = cmcp.UniformFaults(f.faultSeed, f.faultRate)
	}
	switch m {
	case modeCompact:
		out := f.compactOut
		if out == "" {
			out = f.compactJournal
		}
		st, err := cmcp.CompactSweepJournal(f.compactJournal, out)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("compacted %s -> %s: %d entries kept, %d duplicates dropped, %d torn lines skipped\n",
			f.compactJournal, out, st.Kept, st.Dropped, st.Skipped)
	case modeWorker:
		w := &cmcp.SweepWorker{
			Base: strings.TrimRight(f.worker, "/"),
			Name: f.workerName,
			Log: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "[worker] "+format+"\n", args...)
			},
		}
		if err := w.Run(); err != nil {
			fatal(err)
		}
	case modeRun:
		if err := runOne(f, faults); err != nil {
			fatal(err)
		}
	case modeExp:
		if err := runExp(f, faults); err != nil {
			fatal(err)
		}
	}
}

// runExp runs -exp mode: builds the experiment options (journal
// backend, shard, coordinator) from the flags and runs the sweep.
func runExp(f *cliFlags, faults *cmcp.FaultConfig) error {
	shardIdx, shardCount, err := parseShard(f.shard)
	if err != nil {
		return err
	}
	o := cmcp.ExperimentOptions{
		Scale:  f.scale,
		Quick:  f.quick,
		Seed:   f.seed,
		Faults: faults,
		Hist:   f.hist,
	}
	o.Parallelism = f.parallel
	o.Repeats = f.repeats
	o.Imports = splitList(f.journalImport)
	o.Shard, o.Shards = shardIdx, shardCount
	o.ScheduleFrom = f.scheduleFrom
	if f.journal != "" {
		// One backend serves every experiment of the invocation and is
		// closed after the last one; the deferred Close covers error
		// paths, the success path checks Close below.
		backend := cmcp.NewFileSweepBackend(f.journal)
		defer backend.Close()
		o.Backend = backend
	}
	// -tenants used to be silently ignored under -exp (the same bug
	// class -fault-rate once had): the spec is threaded through the
	// options, and experiments that cannot honor it fail loudly.
	if f.tenants > 0 {
		spec := cmcp.DefaultTenantSpec(f.tenants, f.zipfS, f.churn)
		if f.scale != 1.0 {
			spec.TotalTouches = int(float64(spec.TotalTouches) * f.scale)
		}
		o.Tenants = &spec
	}
	if f.sockets > 1 {
		// Seats per socket are re-derived per grid point (the grids
		// sweep core counts); only the socket count and costs matter.
		o.Topology = cmcp.DefaultTopology(f.sockets, 1)
	}
	var coordinator *cmcp.Coordinator
	if f.coordinate != "" {
		// The meter is shared: the sweep layer advances done counts,
		// the coordinator adds retried/poisoned.
		o.Progress = cmcp.NewSweepProgress()
		coordinator = cmcp.NewCoordinator(cmcp.CoordinatorOptions{
			LeaseTTL:    f.leaseTTL,
			MaxAttempts: f.maxAttempts,
			Progress:    o.Progress,
		})
		if err := coordinator.Start(f.coordinate); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[coord] serving sweep on http://%s/ — start workers with: cmcpsim -worker http://%s\n",
			coordinator.Addr(), coordinator.Addr())
		o.Runner = coordinator
	}
	err = runExperiments(f, o, coordinator)
	if coordinator != nil {
		// Let the fleet hear "done" (or grab the poisoned report)
		// before the listener disappears.
		coordinator.Finish()
		if f.linger > 0 {
			time.Sleep(f.linger)
		}
		coordinator.Close()
		if report := coordinator.PoisonedReport(); len(report) > 0 {
			fmt.Fprintf(os.Stderr, "[coord] %d poisoned key(s):\n", len(report))
			for _, p := range report {
				fmt.Fprintf(os.Stderr, "[coord]   %s (workload %q, seed %d): %d attempts, last error: %s\n",
					p.Key, p.Workload, p.Seed, p.Attempts, p.LastErr)
			}
		}
	}
	if err != nil {
		return err
	}
	if o.Backend != nil {
		return o.Backend.Close()
	}
	return nil
}

// parseShard parses "i/n" (e.g. "0/4"); "" means unsharded.
func parseShard(s string) (int, int, error) {
	if s == "" {
		return 0, 0, nil
	}
	var i, n int
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &n); err != nil || n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("bad -shard %q: want \"i/n\" with 0 <= i < n", s)
	}
	return i, n, nil
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cmcpsim:", err)
	os.Exit(1)
}

func runExperiments(f *cliFlags, o cmcp.ExperimentOptions, coordinator *cmcp.Coordinator) error {
	ids := []string{f.exp}
	if f.exp == "all" {
		ids = []string{"fig6", "fig8", "fig7", "table1", "fig9", "fig10", "sense"}
	}
	sharded := o.Shards > 1
	if o.Progress == nil && (f.progress || sharded || f.serve != "") {
		o.Progress = cmcp.NewSweepProgress()
	}
	srv, stopSrv, err := startTelemetry(f, o.Progress)
	if err != nil {
		return err
	}
	defer stopSrv()
	if srv != nil {
		// Executed runs stream into the server's atomic snapshot as
		// they complete; scrapers read the snapshot, never live state.
		o.OnResult = func(r *cmcp.Result) { srv.Publish(r.Run) }
		if coordinator != nil {
			// /metrics polls the lease table live at scrape time.
			srv.SetCoordSource(coordinator.Stats)
		}
	}
	if f.progress {
		// Periodic one-line status on stderr while the sweep grinds.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(5 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					fmt.Fprintf(os.Stderr, "[sweep] %s\n", o.Progress)
				}
			}
		}()
	}
	for _, one := range ids {
		start := time.Now()
		rep, err := cmcp.RunExperiment(one, o)
		if err != nil {
			return err
		}
		switch {
		case sharded:
			// A shard's report is scaffolding full of placeholder rows;
			// its real output is the journal. Say so instead of printing.
		case f.csv:
			fmt.Print(rep.CSV())
		default:
			fmt.Print(rep.String())
			if f.plot {
				for _, tab := range rep.Tables {
					if chart := plot.FromTable(tab, 56, 14); chart != "" {
						fmt.Println(chart)
					}
				}
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", one, time.Since(start).Round(time.Millisecond))
	}
	if s := o.Progress; s != nil {
		snap := s.Snapshot()
		fmt.Fprintf(os.Stderr, "[sweep] %s\n", snap)
		if sharded {
			fmt.Fprintf(os.Stderr,
				"[sweep] shard %d/%d complete: %d runs journaled to %s (%d reused, %d left to other shards)\n"+
					"[sweep] run the remaining shards, then merge with: -exp %s -journal %s -journal-import <other journals>\n",
				o.Shard, o.Shards, snap.Executed, f.journal, snap.Loaded, snap.Missing, f.exp, f.journal)
		}
	}
	return nil
}

// runOne runs -run mode: one simulation, summarized on stdout.
func runOne(f *cliFlags, faults *cmcp.FaultConfig) error {
	srv, stopSrv, err := startTelemetry(f, nil)
	if err != nil {
		return err
	}
	defer stopSrv()
	var wl cmcp.Workload
	var tenantSpec *cmcp.TenantSpec
	if f.tenants > 0 {
		spec := cmcp.DefaultTenantSpec(f.tenants, f.zipfS, f.churn)
		if f.scale != 1.0 {
			spec.TotalTouches = int(float64(spec.TotalTouches) * f.scale)
		}
		tenantSpec = &spec
	} else {
		var ok bool
		wl, ok = cmcp.WorkloadByName(f.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", f.workload)
		}
		if f.scale != 1.0 {
			wl = wl.Scale(f.scale)
		}
	}
	kind, err := parsePolicy(f.policy)
	if err != nil {
		return err
	}
	tk := cmcp.PSPT
	if strings.EqualFold(f.tables, "regular") {
		tk = cmcp.RegularPT
	} else if !strings.EqualFold(f.tables, "pspt") {
		return fmt.Errorf("unknown tables %q", f.tables)
	}
	adaptive := strings.EqualFold(f.pageSize, "adaptive")
	var size cmcp.PageSize
	if !adaptive {
		size, err = parsePageSize(f.pageSize)
		if err != nil {
			return err
		}
	}
	var rec *cmcp.Recorder
	if f.trace || f.sampleEvery > 0 {
		rec = cmcp.NewRecorder(cmcp.RecorderConfig{SampleEvery: cmcp.Cycles(f.sampleEvery)})
	}
	var topo *cmcp.Topology
	if f.sockets > 1 {
		topo = cmcp.DefaultTopology(f.sockets, (f.cores+f.sockets-1)/f.sockets)
	}
	res, err := cmcp.Simulate(cmcp.Config{
		Cores:            f.cores,
		Workload:         wl,
		Tenants:          tenantSpec,
		MemoryRatio:      f.ratio,
		PageSize:         size,
		AdaptivePageSize: adaptive,
		Tables:           tk,
		Policy:           cmcp.PolicySpec{Kind: kind, P: f.p, DynamicP: f.dynamicP},
		Seed:             f.seed,
		Probe:            rec,
		Faults:           faults,
		Hist:             f.hist,
		Topology:         topo,
	})
	if err != nil {
		return err
	}
	if srv != nil {
		srv.Publish(res.Run)
	}
	r := res.Run
	sizeLabel := size.String()
	if adaptive {
		sizeLabel = "adaptive"
	}
	name := wl.Name
	if tenantSpec != nil {
		name = tenantSpec.Name()
	}
	fmt.Printf("workload      %s (%d pages, %d frames, %s, %v)\n",
		name, res.TotalPages, res.Frames, sizeLabel, tk)
	fmt.Printf("policy        %s\n", res.PolicyName)
	fmt.Printf("runtime       %.2f Mcycles (%.2f ms at 1.053 GHz)\n",
		float64(res.Runtime)/1e6, float64(res.Runtime)/1.053e6)
	fmt.Printf("page faults   %.0f per core\n", r.PerCoreAvg(cmcp.PageFaults))
	fmt.Printf("minor faults  %.0f per core\n", r.PerCoreAvg(cmcp.MinorFaults))
	fmt.Printf("remote invals %.0f per core\n", r.PerCoreAvg(cmcp.RemoteTLBInvalidations))
	fmt.Printf("dTLB misses   %.0f per core\n", r.PerCoreAvg(cmcp.DTLBMisses))
	fmt.Printf("evictions     %.0f per core\n", r.PerCoreAvg(cmcp.Evictions))
	fmt.Printf("data moved    %.1f MB in, %.1f MB out\n",
		float64(r.Total(cmcp.BytesIn))/1e6, float64(r.Total(cmcp.BytesOut))/1e6)
	if res.Sharing != nil {
		fmt.Printf("sharing       %v (pages by core-map count 0..n)\n", res.Sharing[:min(9, len(res.Sharing))])
	}
	if topo != nil {
		fmt.Printf("numa          %s topology; %d cross-socket IPIs, %d shootdown targets filtered, %d remote walks, %d remote PT consults, %d replica syncs, %d PT migrations\n",
			topo, r.Total(cmcp.CrossSocketIPIs), r.Total(cmcp.FilteredShootdowns),
			r.Total(cmcp.RemoteWalks), r.Total(cmcp.RemotePTConsults),
			r.Total(cmcp.ReplicaSyncs), r.Total(cmcp.PTMigrations))
	}
	if faults != nil {
		fmt.Printf("faults        %d injected; recovered via %d retries, %d rollbacks, %d resent IPIs; %d frames quarantined, %d pages degraded\n",
			r.Total(cmcp.FaultsInjected), r.Total(cmcp.RecoveryRetries), r.Total(cmcp.TxRollbacks),
			r.Total(cmcp.ResentShootdowns), res.Quarantined, r.Total(cmcp.DegradedPages))
	}
	if hs := r.Hists; hs != nil {
		fmt.Printf("latency histograms (cycles unless noted):\n")
		fmt.Printf("  %-26s %10s %12s %8s %8s %8s %8s %10s\n",
			"", "count", "mean", "p50", "p90", "p99", "p999", "max")
		for i, name := range cmcp.HistNames() {
			s := hs.Get(cmcp.HistID(i)).Summarize()
			if s.Count == 0 {
				continue
			}
			fmt.Printf("  %-26s %10d %12.1f %8d %8d %8d %8d %10d\n",
				name, s.Count, s.Mean, s.P50, s.P90, s.P99, s.P999, s.Max)
		}
	}
	if ts := r.Tenants; ts != nil {
		fmt.Printf("tenants       %d address spaces; fairness (Jain, over p99 fault service) %.3f\n",
			ts.Tenants(), ts.FairnessIndex())
		show := min(8, ts.Tenants())
		fmt.Printf("  %-8s %12s %12s %10s %10s %10s %10s\n",
			"tenant", "touches", "page_faults", "evictions", "caused", "p99(cyc)", "max(cyc)")
		for t := 0; t < show; t++ {
			s := ts.FaultHist(t).Summarize()
			fmt.Printf("  %-8d %12d %12d %10d %10d %10d %10d\n", t,
				ts.Get(t, cmcp.TenantTouches), ts.Get(t, cmcp.TenantFaults),
				ts.Get(t, cmcp.TenantEvictions), ts.Get(t, cmcp.TenantEvictionsCaused),
				s.P99, s.Max)
		}
		if ts.Tenants() > show {
			fmt.Printf("  ... %d more tenants (full record lands in Run.Tenants and journals)\n",
				ts.Tenants()-show)
		}
	}
	if rec != nil {
		if err := writeTrace(rec, f); err != nil {
			return err
		}
	}
	return nil
}

// writeTrace exports the recorder's contents according to the flags:
// events to -trace-out (format by extension), samples to a sibling
// .samples.csv when -sample-every is set.
func writeTrace(rec *cmcp.Recorder, f *cliFlags) error {
	if f.trace {
		file, err := os.Create(f.traceOut)
		if err != nil {
			return err
		}
		events := rec.Events()
		switch {
		case strings.HasSuffix(f.traceOut, ".jsonl"):
			// The meta header carries the drop count into the file, so
			// cmcptrace -replay can warn that the ring overflowed
			// instead of presenting a truncated trace as complete.
			err = cmcp.WriteTraceJSONLWithMeta(file, events, rec.Dropped())
		default:
			err = cmcp.WriteChromeTrace(file, events, rec.Samples(), f.cores)
		}
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("trace         %d events (%d dropped) -> %s\n", len(events), rec.Dropped(), f.traceOut)
	}
	if f.sampleEvery > 0 {
		ext := filepath.Ext(f.traceOut)
		csvOut := strings.TrimSuffix(f.traceOut, ext) + ".samples.csv"
		file, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		err = cmcp.WriteSamplesCSV(file, rec.Samples())
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("samples       %d points -> %s\n", len(rec.Samples()), csvOut)
	}
	return nil
}

func parsePolicy(name string) (cmcp.PolicyKind, error) {
	for _, k := range []cmcp.PolicyKind{cmcp.FIFO, cmcp.LRU, cmcp.CMCP, cmcp.CLOCK, cmcp.LFU, cmcp.Random} {
		if strings.EqualFold(k.String(), name) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

func parsePageSize(s string) (cmcp.PageSize, error) {
	switch strings.ToLower(s) {
	case "4k", "4kb":
		return cmcp.Size4k, nil
	case "64k", "64kb":
		return cmcp.Size64k, nil
	case "2m", "2mb":
		return cmcp.Size2M, nil
	default:
		return 0, fmt.Errorf("unknown page size %q", s)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
