package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"cmcp"
	"cmcp/internal/core"
	"cmcp/internal/policy"
	"cmcp/internal/sim"
	"cmcp/internal/sweep"
	"cmcp/internal/vm"
)

// Span is one timed call into a module, recorded from the benchmark's
// own files around the call. Calls too frequent to keep one span each
// (policy methods, ScanAccessed, journal appends) are folded into their
// parent span's Calls as count + total time, so a span's self time is
// its duration minus its child spans and its folded calls.
type Span struct {
	Name   string               `json:"name"`
	Parent int                  `json:"parent"` // index into the span list; -1 for a root
	Start  int64                `json:"start_ns"`
	End    int64                `json:"end_ns"`
	Calls  map[string]*CallStat `json:"calls,omitempty"`
	Config string               `json:"config,omitempty"`
}

// CallStat aggregates the folded calls of one name under one span.
type CallStat struct {
	N  int64 `json:"n"`
	Ns int64 `json:"ns"`
}

// Tracer keeps spans in memory; Write dumps them once at the end.
type Tracer struct {
	epoch time.Time
	Spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Begin opens a span and returns its index.
func (t *Tracer) Begin(name string, parent int) int {
	t.Spans = append(t.Spans, Span{Name: name, Parent: parent, Start: t.now(), End: -1})
	return len(t.Spans) - 1
}

// End closes span i.
func (t *Tracer) End(i int) { t.Spans[i].End = t.now() }

// Fold attaches aggregated calls to span i.
func (t *Tracer) Fold(i int, name string, n, ns int64) {
	if n == 0 {
		return
	}
	s := &t.Spans[i]
	if s.Calls == nil {
		s.Calls = map[string]*CallStat{}
	}
	c := s.Calls[name]
	if c == nil {
		c = &CallStat{}
		s.Calls[name] = c
	}
	c.N += n
	c.Ns += ns
}

// Duration returns span i's length in nanoseconds.
func (t *Tracer) Duration(i int) int64 { return t.Spans[i].End - t.Spans[i].Start }

// SelfNs is span i's duration minus its child spans and the top-level
// folded calls (names without a "/" nesting marker).
func (t *Tracer) SelfNs(i int) int64 {
	self := t.Duration(i)
	for j := i + 1; j < len(t.Spans); j++ {
		if t.Spans[j].Parent == i {
			self -= t.Duration(j)
		}
	}
	for name, c := range t.Spans[i].Calls {
		if !strings.Contains(name, "/") {
			self -= c.Ns
		}
	}
	return self
}

// Write dumps the spans with the host block as JSON.
func (t *Tracer) Write(path string, host Host) error {
	data, err := json.Marshal(struct {
		Host  Host   `json:"host"`
		Spans []Span `json:"spans"`
	}{host, t.Spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Policy method slots of a callRecorder.
const (
	callTick = iota
	callVictim
	callPTESetup
	callRemove
	numCalls
)

var callNames = [numCalls]string{"policy.Tick", "policy.Victim", "policy.PTESetup", "policy.Remove"}

// callRecorder accumulates the policy and host decorator timings of one
// simulation. Simulate drives policies from one goroutine, so plain
// fields suffice.
type callRecorder struct {
	n, ns [numCalls]int64
	// scans nested under each policy method (slot numCalls: outside
	// any), and how many found the accessed bit set.
	scanN, scanNs [numCalls + 1]int64
	scanUseful    int64
	open          int // policy method currently running, numCalls if none
}

func newCallRecorder() *callRecorder { return &callRecorder{open: numCalls} }

// fold attaches the recorded calls to span i.
func (r *callRecorder) fold(t *Tracer, i int) {
	for k := 0; k < numCalls; k++ {
		t.Fold(i, callNames[k], r.n[k], r.ns[k])
		t.Fold(i, callNames[k]+"/vm.ScanAccessed", r.scanN[k], r.scanNs[k])
	}
	t.Fold(i, "vm.ScanAccessed", r.scanN[numCalls], r.scanNs[numCalls])
	t.Fold(i, "vm.ScanAccessed.useful", r.scanUseful, 0)
}

func (r *callRecorder) enter(k int) (int, time.Time) {
	prev := r.open
	r.open = k
	return prev, time.Now()
}

func (r *callRecorder) exit(k, prev int, t0 time.Time) {
	r.ns[k] += int64(time.Since(t0))
	r.n[k]++
	r.open = prev
}

// tracedHost times ScanAccessed, the access-bit scan whose remote
// invalidations the paper's mechanism avoids.
type tracedHost struct {
	inner policy.Host
	rec   *callRecorder
}

func (h *tracedHost) CoreMapCount(base sim.PageID) int { return h.inner.CoreMapCount(base) }

func (h *tracedHost) ScanAccessed(base sim.PageID) bool {
	t0 := time.Now()
	hit := h.inner.ScanAccessed(base)
	k := h.rec.open
	h.rec.scanNs[k] += int64(time.Since(t0))
	h.rec.scanN[k]++
	if hit {
		h.rec.scanUseful++
	}
	return hit
}

// tracedPolicy times every Policy method of the wrapped policy.
type tracedPolicy struct {
	inner policy.Policy
	rec   *callRecorder
}

func (p *tracedPolicy) Name() string  { return p.inner.Name() }
func (p *tracedPolicy) Resident() int { return p.inner.Resident() }

func (p *tracedPolicy) PTESetup(base sim.PageID) {
	prev, t0 := p.rec.enter(callPTESetup)
	p.inner.PTESetup(base)
	p.rec.exit(callPTESetup, prev, t0)
}

func (p *tracedPolicy) Victim() (sim.PageID, bool) {
	prev, t0 := p.rec.enter(callVictim)
	base, ok := p.inner.Victim()
	p.rec.exit(callVictim, prev, t0)
	return base, ok
}

func (p *tracedPolicy) Remove(base sim.PageID) {
	prev, t0 := p.rec.enter(callRemove)
	p.inner.Remove(base)
	p.rec.exit(callRemove, prev, t0)
}

func (p *tracedPolicy) Tick(now sim.Cycles) {
	prev, t0 := p.rec.enter(callTick)
	p.inner.Tick(now)
	p.rec.exit(callTick, prev, t0)
}

// The optional interfaces the engine probes for. The decorator exposes
// exactly the ones the wrapped policy implements, so wrapping changes
// no dispatch decision.
type grouper interface{ Groups() (fifo, prio int) }

type tracedObserver struct{ *tracedPolicy }

func (p tracedObserver) NoteFault() { p.inner.(vm.FaultObserver).NoteFault() }

type tracedGrouper struct{ *tracedPolicy }

func (p tracedGrouper) Groups() (int, int) { return p.inner.(grouper).Groups() }

type tracedObserverGrouper struct{ *tracedPolicy }

func (p tracedObserverGrouper) NoteFault()         { p.inner.(vm.FaultObserver).NoteFault() }
func (p tracedObserverGrouper) Groups() (int, int) { return p.inner.(grouper).Groups() }

// wrapPolicy decorates pol, forwarding its optional interfaces.
func wrapPolicy(pol policy.Policy, rec *callRecorder) policy.Policy {
	tp := &tracedPolicy{inner: pol, rec: rec}
	_, obs := pol.(vm.FaultObserver)
	_, grp := pol.(grouper)
	switch {
	case obs && grp:
		return tracedObserverGrouper{tp}
	case obs:
		return tracedObserver{tp}
	case grp:
		return tracedGrouper{tp}
	default:
		return tp
	}
}

// tracedConfig returns cfg with its built-in policy replaced by the same
// policy behind the decorators. frames and pages are the run's device
// size and footprint; the policy is sized exactly as the engine sizes
// its own (per tenant on multi-tenant machines), with the same options.
func tracedConfig(cfg cmcp.Config, frames, pages int, rec *callRecorder) cmcp.Config {
	if cfg.Tenants != nil {
		frames /= cfg.Tenants.Tenants
		if frames < 1 {
			frames = 1
		}
		pages = cfg.Tenants.PagesPerTenant
	}
	capacity := frames / int(cfg.PageSize.Span())
	spec := cfg.Policy
	seed := cfg.Seed
	cfg.Policy.Factory = func(h policy.Host) policy.Policy {
		th := &tracedHost{inner: h, rec: rec}
		return wrapPolicy(buildBuiltin(spec, seed, th, capacity, pages), rec)
	}
	return cfg
}

// buildBuiltin mirrors the engine's construction of each built-in
// policy: LRU and LFU scan every 50,000 cycles over the whole capacity
// by default, CMCP takes its p and optional tuner, Random its seed.
func buildBuiltin(spec cmcp.PolicySpec, seed uint64, h policy.Host, capacity, pages int) policy.Policy {
	period := spec.ScanPeriod
	if period == 0 {
		period = 50_000
	}
	batch := spec.ScanBatch
	if batch == 0 {
		batch = capacity
	}
	switch spec.Kind {
	case cmcp.FIFO:
		return policy.NewFIFOIn(nil, pages)
	case cmcp.LRU:
		return policy.NewLRU(h, policy.WithScanPeriod(period), policy.WithLRUArena(nil, pages), policy.WithScanBatch(batch))
	case cmcp.CMCP:
		opts := []core.Option{core.WithArena(nil, pages)}
		if spec.P >= 0 {
			opts = append(opts, core.WithP(spec.P))
		}
		if spec.DynamicP {
			opts = append(opts, core.WithTuner(core.NewTuner(core.TunerConfig{})))
		}
		return core.New(h, capacity, opts...)
	case cmcp.CLOCK:
		return policy.NewClockIn(h, nil, pages)
	case cmcp.LFU:
		return policy.NewLFU(h, policy.WithLFUScanPeriod(period), policy.WithLFUArena(nil, pages), policy.WithLFUScanBatch(batch))
	case cmcp.Random:
		return policy.NewRandomIn(seed^0xabcdef, nil, pages)
	}
	panic("cmcpbench: unknown policy kind " + spec.Kind.String())
}

// timedBackend decorates a sweep journal backend, timing Load and
// Append. Append runs on the sweep's worker goroutines, hence atomics.
type timedBackend struct {
	inner             sweep.Backend
	appendN, appendNs atomic.Int64
	loadN, loadNs     atomic.Int64
}

func (b *timedBackend) Load() ([]sweep.Entry, int, error) {
	t0 := time.Now()
	es, skipped, err := b.inner.Load()
	b.loadNs.Add(int64(time.Since(t0)))
	b.loadN.Add(1)
	return es, skipped, err
}

func (b *timedBackend) Append(e sweep.Entry) error {
	t0 := time.Now()
	err := b.inner.Append(e)
	b.appendNs.Add(int64(time.Since(t0)))
	b.appendN.Add(1)
	return err
}

func (b *timedBackend) Close() error { return b.inner.Close() }
