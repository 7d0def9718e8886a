package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cmcp"
	"cmcp/internal/stats"
	"cmcp/internal/sweep"
)

// layerMetrics are the per-module metrics with their units, in report
// order. Counts come from the simulated counters of Result.Run; times
// come from the traced run and the layer replays.
var layerMetrics = []struct{ Name, Unit string }{
	{"machine.self_s", "s"},
	{"machine.self_ns_per_touch", "ns"},
	{"machine.sim_cycles", "cycles"},
	{"workload.next_ns", "ns"},
	{"workload.build_s", "s"},
	{"workload.touches", "count"},
	{"tlb.misses", "count"},
	{"tlb.l2_hits", "count"},
	{"tlb.hit_ratio", "ratio"},
	{"tlb.remote_invalidations", "count"},
	{"tlb.lookup_ns", "ns"},
	{"tlb.invalidate_ns", "ns"},
	{"pagetable.walks", "count"},
	{"pagetable.lookup_ns", "ns"},
	{"pagetable.set_ns", "ns"},
	{"pspt.minor_faults", "count"},
	{"pspt.touch_ns", "ns"},
	{"pspt.scan_ns", "ns"},
	{"vm.page_faults", "count"},
	{"vm.evictions", "count"},
	{"vm.write_backs", "count"},
	{"vm.ipis_sent", "count"},
	{"vm.bytes_in", "B"},
	{"vm.lock_wait_cycles", "cycles"},
	{"vm.scan_calls", "count"},
	{"vm.scan_ns", "ns"},
	{"vm.scan_useful_ratio", "ratio"},
	{"policy.tick_self_s", "s"},
	{"policy.victim_ns", "ns"},
	{"policy.ptesetup_ns", "ns"},
	{"policy.tick_calls", "count"},
	{"policy.victim_calls", "count"},
	{"policy.ptesetup_calls", "count"},
	{"policy.remove_calls", "count"},
	{"mem.alloc_ns", "ns"},
	{"mem.alloc_s", "s"},
	{"mem.bytes_moved", "B"},
	{"tenants.fairness_p99", "ratio"},
	{"sweep.append_ns", "ns"},
	{"sweep.load_s", "s"},
	{"sweep.executed", "count"},
	{"sweep.loaded", "count"},
	{"sweep.journal_bytes", "B"},
	{"sweep.resume_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// traced alternates an untraced and a traced pass over the run set
// until the measuring time is spent (at least once each), then replays
// the captured traces into the layers the engine does not expose. Every
// traced result must match the pinned digest, as the untraced ones do:
// otherwise the trace measured a different program. Host times are
// medians over the traced passes; counts repeat exactly.
func (b *bench) traced(opt Options, host Host) (map[string]Metric, error) {
	tr := newTracer()
	root := tr.Begin("cmcpbench."+b.def.Name, -1)
	deadline := time.Now().Add(time.Duration(opt.Seconds * float64(time.Second)))
	var plain, traced []float64
	var passes []map[string]float64
	for len(passes) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i, nc := range b.cfgs {
			res, err := cmcp.Simulate(nc.Cfg)
			b.check(i, res, err)
		}
		plain = append(plain, time.Since(t0).Seconds())

		t0 = time.Now()
		pass := tr.Begin("pass", root)
		m := b.tracedPass(tr, pass)
		tr.End(pass)
		traced = append(traced, time.Since(t0).Seconds())
		passes = append(passes, m)
	}
	out := map[string]float64{}
	for k := range passes[0] {
		col := make([]float64, len(passes))
		for i, p := range passes {
			col[i] = p[k]
		}
		out[k] = median(col)
	}
	out["trace.overhead_ratio"] = median(traced) / median(plain)

	if b.def.Sweep {
		b.tracedSweep(tr, root, out)
	}
	if err := b.replays(tr, root, out); err != nil {
		return nil, err
	}
	tr.End(root)
	spans := filepath.Join(opt.Dir, fmt.Sprintf("spans-%s-%d.json", b.def.Name, opt.Seed))
	if err := tr.Write(spans, host); err != nil {
		return nil, err
	}
	opt.Report("spans %s (%d spans, %d traced passes)", spans, len(tr.Spans), len(passes))

	metrics := map[string]Metric{}
	for _, lm := range layerMetrics {
		metrics[lm.Name] = Metric{out[lm.Name], lm.Unit}
	}
	return metrics, nil
}

// tracedPass simulates every config once with the policy and host
// decorators installed, one machine.Simulate span per config.
func (b *bench) tracedPass(tr *Tracer, parent int) map[string]float64 {
	m := map[string]float64{}
	var selfNs, tickSelf, victimNs, victimN, setupNs, setupN, scanNs, scanN, useful int64
	var fairness []float64
	for i, nc := range b.cfgs {
		rec := newCallRecorder()
		cfg := tracedConfig(nc.Cfg, b.frames[i], b.pages[i], rec)
		sp := tr.Begin("machine.Simulate", parent)
		tr.Spans[sp].Config = nc.Name
		res, err := cmcp.Simulate(cfg)
		tr.End(sp)
		rec.fold(tr, sp)
		if !b.check(i, res, err) {
			continue
		}
		selfNs += tr.SelfNs(sp)
		tickSelf += rec.ns[callTick] - rec.scanNs[callTick]
		victimNs += rec.ns[callVictim] - rec.scanNs[callVictim]
		victimN += rec.n[callVictim]
		setupNs += rec.ns[callPTESetup] - rec.scanNs[callPTESetup]
		setupN += rec.n[callPTESetup]
		for k := range rec.scanN {
			scanNs += rec.scanNs[k]
			scanN += rec.scanN[k]
		}
		useful += rec.scanUseful
		m["policy.tick_calls"] += float64(rec.n[callTick])
		m["policy.victim_calls"] += float64(rec.n[callVictim])
		m["policy.ptesetup_calls"] += float64(rec.n[callPTESetup])
		m["policy.remove_calls"] += float64(rec.n[callRemove])

		run := res.Run
		b.faults[i] = run.Total(stats.PageFaults)
		m["machine.sim_cycles"] += float64(res.Runtime)
		m["workload.touches"] += float64(run.Total(stats.Touches))
		m["tlb.misses"] += float64(run.Total(stats.DTLBMisses))
		m["tlb.l2_hits"] += float64(run.Total(stats.TLBL2Hits))
		m["tlb.remote_invalidations"] += float64(run.Total(stats.RemoteTLBInvalidations))
		m["pagetable.walks"] += float64(run.Total(stats.PageWalks))
		m["pspt.minor_faults"] += float64(run.Total(stats.MinorFaults))
		m["vm.page_faults"] += float64(run.Total(stats.PageFaults))
		m["vm.evictions"] += float64(run.Total(stats.Evictions))
		m["vm.write_backs"] += float64(run.Total(stats.WriteBacks))
		m["vm.ipis_sent"] += float64(run.Total(stats.IPIsSent))
		m["vm.bytes_in"] += float64(run.Total(stats.BytesIn))
		m["vm.lock_wait_cycles"] += float64(run.Total(stats.LockWaitCycles))
		m["mem.bytes_moved"] += float64(run.Total(stats.BytesIn) + run.Total(stats.BytesOut))
		if run.Tenants != nil {
			fairness = append(fairness, run.Tenants.FairnessIndex())
		}
	}
	touches := m["workload.touches"]
	m["machine.self_s"] = float64(selfNs) / 1e9
	m["machine.self_ns_per_touch"] = ratio(float64(selfNs), touches)
	m["tlb.hit_ratio"] = 1 - ratio(m["tlb.misses"], touches)
	m["policy.tick_self_s"] = float64(tickSelf) / 1e9
	m["policy.victim_ns"] = ratio(float64(victimNs), float64(victimN))
	m["policy.ptesetup_ns"] = ratio(float64(setupNs), float64(setupN))
	m["vm.scan_calls"] = float64(scanN)
	m["vm.scan_ns"] = float64(scanNs)
	m["vm.scan_useful_ratio"] = ratio(float64(useful), float64(scanN))
	if len(fairness) > 0 {
		m["tenants.fairness_p99"] = median(fairness)
	}
	return m
}

// tracedSweep runs the sweep and its resume once more behind the timed
// journal backend.
func (b *bench) tracedSweep(tr *Tracer, parent int, out map[string]float64) {
	var backends []*timedBackend
	newBackend := func(path string) sweep.Backend {
		tb := &timedBackend{inner: sweep.NewFileBackend(path)}
		backends = append(backends, tb)
		return tb
	}
	around := func(phase string, fn func()) {
		sp := tr.Begin(phase, parent)
		fn()
		tr.End(sp)
		tb := backends[len(backends)-1]
		tr.Fold(sp, "sweep.Backend.Append", tb.appendN.Load(), tb.appendNs.Load())
		tr.Fold(sp, "sweep.Backend.Load", tb.loadN.Load(), tb.loadNs.Load())
	}
	failed := b.failed
	_, resume, _ := b.sweepAndResume(newBackend, around)
	if b.failed != failed || len(backends) != 2 {
		return
	}
	run, res := backends[0], backends[1]
	out["sweep.append_ns"] = ratio(float64(run.appendNs.Load()), float64(run.appendN.Load()))
	out["sweep.executed"] = float64(run.appendN.Load())
	out["sweep.load_s"] = float64(res.loadNs.Load()) / 1e9
	out["sweep.loaded"] = float64(len(b.cfgs))
	out["sweep.resume_s"] = resume.Seconds()
	if fi, err := os.Stat(b.journal); err == nil {
		out["sweep.journal_bytes"] = float64(fi.Size())
	}
}

// replays times the layers below the engine standalone: workload stream
// generation, and the captured trace replayed into TLBs, a page table
// and a PSPT, plus the device allocator at each run's frame count, page
// size and fault count. Each distinct workload is captured once.
func (b *bench) replays(tr *Tracer, parent int, out map[string]float64) error {
	var build, next, tlbLookup, tlbInval, ptLookup, ptSet, psptTouch, psptScan, alloc opCost
	var allocTotalNs float64
	captured := map[string][]cmcp.TraceRecord{}
	for i, nc := range b.cfgs {
		cfg := nc.Cfg
		key := fmt.Sprintf("%s/%d/%v", cfg.Workload.Name, cfg.Cores, cfg.Tenants != nil)
		recs, ok := captured[key]
		if !ok {
			sp := tr.Begin("workload.Streams", parent)
			bc, nx, err := drainStreams(cfg)
			tr.End(sp)
			if err != nil {
				return err
			}
			build.add(bc)
			next.add(nx)
			sp = tr.Begin("trace.Capture", parent)
			recs, err = captureRecords(cfg)
			tr.End(sp)
			if err != nil {
				return err
			}
			captured[key] = recs

			sp = tr.Begin("pagetable.replay", parent)
			l, s := replayPageTable(recs)
			tr.End(sp)
			ptLookup.add(l)
			ptSet.add(s)
			sp = tr.Begin("pspt.replay", parent)
			t, sc, err := replayPSPT(recs, cfg.Cores)
			tr.End(sp)
			if err != nil {
				return err
			}
			psptTouch.add(t)
			psptScan.add(sc)
		}
		size := cfg.PageSize
		if cfg.AdaptivePageSize {
			size = cmcp.Size64k // adaptive runs mix sizes; replay the middle one
		}
		sp := tr.Begin("tlb.replay", parent)
		l, inv := replayTLB(recs, cfg.Cores, size)
		tr.End(sp)
		tlbLookup.add(l)
		tlbInval.add(inv)

		faults := b.faults[i]
		if faults == 0 {
			continue
		}
		sp = tr.Begin("mem.replay", parent)
		a := replayDevice(b.frames[i], size, faults)
		tr.End(sp)
		alloc.add(a)
		allocTotalNs += a.per() * float64(faults)
	}
	out["workload.build_s"] = float64(build.Ns) / 1e9
	out["workload.next_ns"] = next.per()
	out["tlb.lookup_ns"] = tlbLookup.per()
	out["tlb.invalidate_ns"] = tlbInval.per()
	out["pagetable.lookup_ns"] = ptLookup.per()
	out["pagetable.set_ns"] = ptSet.per()
	out["pspt.touch_ns"] = psptTouch.per()
	out["pspt.scan_ns"] = psptScan.per()
	out["mem.alloc_ns"] = alloc.per()
	out["mem.alloc_s"] = allocTotalNs / 1e9
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
