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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cmcp"
	"cmcp/internal/plot"
)

// traceOptions bundles the observability flags of -run mode.
type traceOptions struct {
	enabled     bool
	out         string
	sampleEvery uint64
}

// serveOptions bundles the live-telemetry flags.
type serveOptions struct {
	addr  string
	grace time.Duration
}

// startTelemetry starts the live telemetry server when -serve is set.
// It returns the server (nil when disabled) and a stop function that
// holds the server open for the grace period — so a scraper arriving
// just as a fast sweep finishes still sees the final state — and then
// shuts it down.
func startTelemetry(sopt serveOptions, progress *cmcp.SweepProgress) (*cmcp.TelemetryServer, func(), error) {
	if sopt.addr == "" {
		return nil, func() {}, nil
	}
	srv := cmcp.NewTelemetryServer(progress)
	if err := srv.Start(sopt.addr); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "[telemetry] serving http://%s/ (/metrics, /progress, /debug/pprof)\n", srv.Addr())
	stop := func() {
		if sopt.grace > 0 {
			fmt.Fprintf(os.Stderr, "[telemetry] holding server open for %s\n", sopt.grace)
			time.Sleep(sopt.grace)
		}
		srv.Close()
	}
	return srv, stop, nil
}

func main() {
	var (
		exp      = flag.String("exp", "", "experiment to regenerate: fig6|fig7|fig8|fig9|fig10|table1|sense|all, or an extension: numa|tenants")
		quick    = flag.Bool("quick", false, "shrink sweeps (fewer core counts and ratio points)")
		scale    = flag.Float64("scale", 1.0, "workload footprint/work multiplier")
		seed     = flag.Uint64("seed", 42, "random seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned text")
		plotFlag = flag.Bool("plot", false, "render numeric tables as ASCII charts too")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		repeats  = flag.Int("repeats", 1, "replicate each run under N seeds and average")

		journal       = flag.String("journal", "", "with -exp: checkpoint completed runs to this JSONL journal and resume from it")
		journalImport = flag.String("journal-import", "", "with -exp: comma-separated read-only journals to merge (other shards' output)")
		shard         = flag.String("shard", "", "with -exp: run only shard i of n, as \"i/n\"; partitions the grid by content key")
		progress      = flag.Bool("progress", false, "with -exp: report sweep progress (runs done/total, runs/s, ETA) on stderr")
		scheduleFrom  = flag.String("schedule-from", "", "with -exp: order pending runs longest-first using runtimes recorded in this journal (a previous run's -journal)")

		coordinate  = flag.String("coordinate", "", "with -exp: serve the sweep as a coordinator on this address (e.g. 127.0.0.1:9152) and dispatch runs to -worker processes instead of executing locally; requires -journal")
		leaseTTL    = flag.Duration("lease-ttl", 15*time.Second, "with -coordinate: lease expiry without a heartbeat")
		maxAttempts = flag.Int("max-attempts", 3, "with -coordinate: failed leases per key before it is quarantined as poisoned")
		linger      = flag.Duration("linger", 3*time.Second, "with -coordinate: keep serving this long after the sweep finishes so workers hear 'done' and exit cleanly")

		workerBase = flag.String("worker", "", "run as a sweep worker against this coordinator URL (e.g. http://host:9152) until the sweep is done")
		workerName = flag.String("worker-name", "", "with -worker: name reported in leases and logs (default worker-<pid>)")

		compactJournal = flag.String("compact-journal", "", "compact this sweep journal (keep the last entry per key, drop torn lines, sort) and exit")
		compactOut     = flag.String("compact-out", "", "with -compact-journal: output path (default: compact in place)")

		run      = flag.Bool("run", false, "run a single simulation instead of an experiment")
		wlName   = flag.String("workload", "SCALE", "workload: bt.B|lu.B|cg.B|SCALE")
		cores    = flag.Int("cores", 56, "application cores")
		ratio    = flag.Float64("ratio", 0.5, "device memory as a fraction of the footprint")
		polName  = flag.String("policy", "CMCP", "policy: FIFO|LRU|CMCP|CLOCK|LFU|Random")
		p        = flag.Float64("p", -1, "CMCP prioritized-pages ratio (-1 = default)")
		dynamicP = flag.Bool("dynamic-p", false, "enable CMCP's fault-feedback p tuner")
		tables   = flag.String("tables", "pspt", "page tables: pspt|regular")
		pageSize = flag.String("pagesize", "4k", "page size: 4k|64k|2m|adaptive")

		tenants = flag.Int("tenants", 0, "with -run or -exp tenants: simulate N tenant address spaces contending for the frame pool (0 = single-tenant -workload run)")
		zipfS   = flag.Float64("zipf-s", 1.1, "with -tenants: Zipfian tenant-popularity exponent (higher = more skew)")
		churn   = flag.Int("churn", 0, "with -tenants: rotate the hot tenant set every N touches per core (0 = no churn)")

		sockets = flag.Int("sockets", 1, "with -run or -exp: NUMA sockets; cores spread evenly across per-socket IPI rings (1 = flat ring, bit-identical to pre-NUMA builds)")

		faultRate = flag.Float64("fault-rate", 0, "with -run or -exp: per-event device fault injection rate for every fault kind (0 = off)")
		faultSeed = flag.Uint64("fault-seed", 1, "with -run or -exp: fault injector seed (independent of -seed)")

		histFlag   = flag.Bool("hist", false, "with -run or -exp: record latency/fan-out histograms (read-only; counters stay bit-identical)")
		serve      = flag.String("serve", "", "with -run or -exp: serve live telemetry (/metrics, /progress, /debug/pprof) on this address, e.g. 127.0.0.1:9151")
		serveGrace = flag.Duration("serve-grace", 0, "with -serve: keep the telemetry server up this long after the work finishes, so a scraper cannot race a fast run")

		traceFlag   = flag.Bool("trace", false, "record a flight-recorder event trace of the -run simulation")
		traceOut    = flag.String("trace-out", "trace.json", "trace output path: .json = Chrome trace_event (Perfetto), .jsonl = JSON Lines")
		sampleEvery = flag.Uint64("sample-every", 0, "time-series sampling interval in cycles (0 = off); CSV lands next to -trace-out")
	)
	flag.Parse()

	var faults *cmcp.FaultConfig
	if *faultRate > 0 {
		faults = cmcp.UniformFaults(*faultSeed, *faultRate)
	}
	sopt := serveOptions{addr: *serve, grace: *serveGrace}
	switch {
	case *compactJournal != "":
		out := *compactOut
		if out == "" {
			out = *compactJournal
		}
		st, err := cmcp.CompactSweepJournal(*compactJournal, out)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("compacted %s -> %s: %d entries kept, %d duplicates dropped, %d torn lines skipped\n",
			*compactJournal, out, st.Kept, st.Dropped, st.Skipped)
	case *workerBase != "":
		w := &cmcp.SweepWorker{
			Base: strings.TrimRight(*workerBase, "/"),
			Name: *workerName,
			Log: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "[worker] "+format+"\n", args...)
			},
		}
		if err := w.Run(); err != nil {
			fatal(err)
		}
	case *run:
		topt := traceOptions{enabled: *traceFlag, out: *traceOut, sampleEvery: *sampleEvery}
		if err := runOne(*wlName, *cores, *ratio, *polName, *p, *dynamicP, *tables, *pageSize, *scale, *seed, faults, topt, *histFlag, sopt, *tenants, *zipfS, *churn, *sockets); err != nil {
			fatal(err)
		}
	case *exp != "":
		shardIdx, shardCount, err := parseShard(*shard)
		if err != nil {
			fatal(err)
		}
		o := cmcp.ExperimentOptions{
			Scale:        *scale,
			Quick:        *quick,
			Seed:         *seed,
			Parallelism:  *parallel,
			Repeats:      *repeats,
			Faults:       faults,
			Journal:      *journal,
			Imports:      splitList(*journalImport),
			Shard:        shardIdx,
			Shards:       shardCount,
			Hist:         *histFlag,
			ScheduleFrom: *scheduleFrom,
		}
		// -tenants used to be silently ignored under -exp (the same bug
		// class -fault-rate once had): the spec is threaded through the
		// options, and experiments that cannot honor it fail loudly.
		if *tenants > 0 {
			spec := cmcp.DefaultTenantSpec(*tenants, *zipfS, *churn)
			if *scale != 1.0 {
				spec.TotalTouches = int(float64(spec.TotalTouches) * *scale)
			}
			o.Tenants = &spec
		}
		if *sockets > 1 {
			// Seats per socket are re-derived per grid point (the grids
			// sweep core counts); only the socket count and costs matter.
			o.Topology = cmcp.DefaultTopology(*sockets, 1)
		}
		if shardCount > 1 && *journal == "" {
			fatal(fmt.Errorf("-shard requires -journal: a shard's only output is its journal"))
		}
		var coordinator *cmcp.Coordinator
		if *coordinate != "" {
			if *journal == "" {
				// The journal is the coordinator's only durable state; a
				// coordinated sweep without one could not survive a restart.
				fatal(fmt.Errorf("-coordinate requires -journal: the journal is the sweep's durable state"))
			}
			if shardCount > 1 {
				fatal(fmt.Errorf("-coordinate replaces -shard: the coordinator partitions work by lease, not by shard"))
			}
			// The meter is shared: the sweep layer advances done counts,
			// the coordinator adds retried/poisoned.
			o.Progress = cmcp.NewSweepProgress()
			coordinator = cmcp.NewCoordinator(cmcp.CoordinatorOptions{
				LeaseTTL:    *leaseTTL,
				MaxAttempts: *maxAttempts,
				Progress:    o.Progress,
			})
			if err := coordinator.Start(*coordinate); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "[coord] serving sweep on http://%s/ — start workers with: cmcpsim -worker http://%s\n",
				coordinator.Addr(), coordinator.Addr())
			o.Runner = coordinator
		}
		err = runExperiments(*exp, o, *csv, *plotFlag, *progress, sopt, coordinator)
		if coordinator != nil {
			// Let the fleet hear "done" (or grab the poisoned report)
			// before the listener disappears.
			coordinator.Finish()
			if *linger > 0 {
				time.Sleep(*linger)
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
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// coordTelemetry maps a coordinator snapshot onto the telemetry
// server's cmcp_coord_* families (the facade keeps the two packages
// decoupled, so the field copy lives here).
func coordTelemetry(s cmcp.CoordinatorStats) cmcp.TelemetryCoordStats {
	return cmcp.TelemetryCoordStats{
		KeysPending:      uint64(s.KeysPending),
		KeysLeased:       uint64(s.KeysLeased),
		KeysDone:         s.KeysDone,
		KeysPoisoned:     s.KeysPoisoned,
		LeasesGranted:    s.LeasesGranted,
		LeasesExpired:    s.LeasesExpired,
		LeasesStolen:     s.LeasesStolen,
		Heartbeats:       s.Heartbeats,
		Retries:          s.Retries,
		DuplicateResults: s.DuplicateResults,
	}
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

func runExperiments(id string, o cmcp.ExperimentOptions, csv, plotCharts, progress bool, sopt serveOptions, coordinator *cmcp.Coordinator) error {
	ids := []string{id}
	if id == "all" {
		ids = []string{"fig6", "fig8", "fig7", "table1", "fig9", "fig10", "sense"}
	}
	sharded := o.Shards > 1
	if o.Progress == nil && (progress || sharded || sopt.addr != "") {
		o.Progress = cmcp.NewSweepProgress()
	}
	srv, stopSrv, err := startTelemetry(sopt, o.Progress)
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
			srv.SetCoordSource(func() cmcp.TelemetryCoordStats {
				return coordTelemetry(coordinator.Stats())
			})
		}
	}
	if progress {
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
		case csv:
			fmt.Print(rep.CSV())
		default:
			fmt.Print(rep.String())
			if plotCharts {
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
				o.Shard, o.Shards, snap.Executed, o.Journal, snap.Loaded, snap.Missing, id, o.Journal)
		}
	}
	return nil
}

func runOne(wlName string, cores int, ratio float64, polName string, p float64, dynamicP bool, tables, pageSize string, scale float64, seed uint64, faults *cmcp.FaultConfig, topt traceOptions, hist bool, sopt serveOptions, tenants int, zipfS float64, churn int, sockets int) error {
	srv, stopSrv, err := startTelemetry(sopt, nil)
	if err != nil {
		return err
	}
	defer stopSrv()
	var wl cmcp.Workload
	var tenantSpec *cmcp.TenantSpec
	if tenants > 0 {
		spec := cmcp.DefaultTenantSpec(tenants, zipfS, churn)
		if scale != 1.0 {
			spec.TotalTouches = int(float64(spec.TotalTouches) * scale)
		}
		tenantSpec = &spec
	} else {
		var ok bool
		wl, ok = cmcp.WorkloadByName(wlName)
		if !ok {
			return fmt.Errorf("unknown workload %q", wlName)
		}
		if scale != 1.0 {
			wl = wl.Scale(scale)
		}
	}
	kind, err := parsePolicy(polName)
	if err != nil {
		return err
	}
	tk := cmcp.PSPT
	if strings.EqualFold(tables, "regular") {
		tk = cmcp.RegularPT
	} else if !strings.EqualFold(tables, "pspt") {
		return fmt.Errorf("unknown tables %q", tables)
	}
	adaptive := strings.EqualFold(pageSize, "adaptive")
	var size cmcp.PageSize
	if !adaptive {
		size, err = parsePageSize(pageSize)
		if err != nil {
			return err
		}
	}
	var rec *cmcp.Recorder
	if topt.enabled || topt.sampleEvery > 0 {
		rec = cmcp.NewRecorder(cmcp.RecorderConfig{SampleEvery: cmcp.Cycles(topt.sampleEvery)})
	}
	var topo *cmcp.Topology
	if sockets > 1 {
		topo = cmcp.DefaultTopology(sockets, (cores+sockets-1)/sockets)
	}
	res, err := cmcp.Simulate(cmcp.Config{
		Cores:            cores,
		Workload:         wl,
		Tenants:          tenantSpec,
		MemoryRatio:      ratio,
		PageSize:         size,
		AdaptivePageSize: adaptive,
		Tables:           tk,
		Policy:           cmcp.PolicySpec{Kind: kind, P: p, DynamicP: dynamicP},
		Seed:             seed,
		Probe:            rec,
		Faults:           faults,
		Hist:             hist,
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
		if err := writeTrace(rec, topt, cores); err != nil {
			return err
		}
	}
	return nil
}

// writeTrace exports the recorder's contents according to the flags:
// events to -trace-out (format by extension), samples to a sibling
// .samples.csv when -sample-every is set.
func writeTrace(rec *cmcp.Recorder, topt traceOptions, cores int) error {
	if topt.enabled {
		f, err := os.Create(topt.out)
		if err != nil {
			return err
		}
		events := rec.Events()
		switch {
		case strings.HasSuffix(topt.out, ".jsonl"):
			// The meta header carries the drop count into the file, so
			// cmcptrace -replay can warn that the ring overflowed
			// instead of presenting a truncated trace as complete.
			err = cmcp.WriteTraceJSONLWithMeta(f, events, rec.Dropped())
		default:
			err = cmcp.WriteChromeTrace(f, events, rec.Samples(), cores)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("trace         %d events (%d dropped) -> %s\n", len(events), rec.Dropped(), topt.out)
	}
	if topt.sampleEvery > 0 {
		ext := filepath.Ext(topt.out)
		csvOut := strings.TrimSuffix(topt.out, ext) + ".samples.csv"
		f, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		err = cmcp.WriteSamplesCSV(f, rec.Samples())
		if cerr := f.Close(); err == nil {
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
