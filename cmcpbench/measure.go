package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"cmcp"
	"cmcp/internal/machine"
	"cmcp/internal/sweep"
)

// bench is one workload run: its generated configs, the expected
// device sizes, and the tally of checked outcomes.
type bench struct {
	def      workloadDef
	variant  int
	cfgs     []namedConfig
	pages    []int    // footprint each config lays out
	frames   []int    // device size each config must resolve to
	faults   []uint64 // major faults of each config's traced run
	pinned   *Pinned
	journal  string
	parallel int

	*tally
}

// tally counts checked outcomes across the set-ups of one invocation.
type tally struct {
	attempted, failed int
	failures          []string
}

// setup parses the reference digests, generates the run set from the
// variant and builds every layout, deriving the footprint and device
// size each result is checked against. It is everything done before the
// first timed run.
func setup(def workloadDef, scale float64, variant int, digests []byte, dir string) (*bench, error) {
	var pinned *Pinned
	if digests != nil {
		p, err := parsePinned(digests)
		if err != nil {
			return nil, err
		}
		pinned = p
	}
	b := &bench{
		def:      def,
		variant:  variant,
		cfgs:     def.Build(scale, variant),
		pinned:   pinned,
		journal:  filepath.Join(dir, fmt.Sprintf("journal-%s-%d.jsonl", def.Name, os.Getpid())),
		parallel: min(2, runtime.NumCPU()),
		tally:    &tally{},
	}
	for _, nc := range b.cfgs {
		var pages int
		if nc.Cfg.Tenants != nil {
			l, err := nc.Cfg.Tenants.Build(nc.Cfg.Cores)
			if err != nil {
				return nil, err
			}
			pages = l.TotalPages
		} else {
			l, err := nc.Cfg.Workload.Build(nc.Cfg.Cores)
			if err != nil {
				return nil, err
			}
			pages = l.TotalPages
		}
		b.pages = append(b.pages, pages)
		b.frames = append(b.frames, machine.Frames(pages, nc.Cfg.MemoryRatio, nc.Cfg.PageSize))
		if pinned != nil {
			if _, err := pinned.Want(def.Name, nc.Name, variant); err != nil {
				return nil, err
			}
		}
	}
	b.faults = make([]uint64, len(b.cfgs))
	if err := os.Remove(b.journal); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return b, nil
}

// check validates one outcome of config i and counts it: an error, a
// wrong device size or footprint, or a digest other than the pinned one
// is a failure.
func (b *bench) check(i int, res *cmcp.Result, err error) bool {
	b.attempted++
	if err == nil && res == nil {
		err = fmt.Errorf("no result")
	}
	if err == nil && (res.Frames != b.frames[i] || res.TotalPages != b.pages[i]) {
		err = fmt.Errorf("frames/pages %d/%d, want %d/%d", res.Frames, res.TotalPages, b.frames[i], b.pages[i])
	}
	if err == nil && b.pinned != nil {
		err = b.pinned.Check(b.def.Name, b.cfgs[i].Name, b.variant, res)
	}
	if err != nil {
		b.failed++
		b.failures = append(b.failures, fmt.Sprintf("%s: %v", b.cfgs[i].Name, err))
		return false
	}
	return true
}

// failAll counts every config of a failed sweep as failed.
func (b *bench) failAll(what string, err error) {
	for _, nc := range b.cfgs {
		b.attempted++
		b.failed++
		b.failures = append(b.failures, fmt.Sprintf("%s %s: %v", what, nc.Name, err))
	}
}

// heapSampler tracks the live-heap high-water mark from a background
// goroutine; reset starts a new window.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				h.observe(s[0].Value.Uint64())
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(v uint64) {
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

func (h *heapSampler) reset() { h.peak.Store(heapNow()) }

// window returns the peak since reset, including the current reading.
func (h *heapSampler) window() uint64 {
	h.observe(heapNow())
	return h.peak.Load()
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// repStats is one repetition of the run set.
type repStats struct {
	wall       []time.Duration // per config; one entry for a sweep
	resume     time.Duration   // sweep only
	touches    uint64
	allocBytes uint64
	allocs     uint64
	peakHeap   uint64
}

// runSet executes the whole run set once, untraced, checking every
// result. Each simulation starts from a collected heap; allocation
// counters and the heap high-water cover the simulations only.
func (b *bench) runSet(h *heapSampler) repStats {
	var st repStats
	var m0, m1 runtime.MemStats
	begin := func() {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		h.reset()
	}
	end := func() {
		if p := h.window(); p > st.peakHeap {
			st.peakHeap = p
		}
		runtime.ReadMemStats(&m1)
		st.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		st.allocs += m1.Mallocs - m0.Mallocs
	}
	if !b.def.Sweep {
		for i, nc := range b.cfgs {
			begin()
			t0 := time.Now()
			res, err := cmcp.Simulate(nc.Cfg)
			el := time.Since(t0)
			end()
			st.wall = append(st.wall, el)
			if b.check(i, res, err) {
				st.touches += res.Run.Total(cmcp.Touches)
			}
		}
		return st
	}
	around := func(_ string, fn func()) {
		begin()
		fn()
		end()
	}
	run, resume, touches := b.sweepAndResume(fileBackend, around)
	st.wall = append(st.wall, run)
	st.resume = resume
	st.touches = touches
	return st
}

// sweepAndResume runs the set as a sweep on a fresh journal, then
// re-runs it from that journal, which must execute nothing and return
// the same results; both sets of results are checked. around wraps
// each of the two sweep.Run calls ("sweep.Run", "sweep.Resume").
func (b *bench) sweepAndResume(newBackend func(path string) sweep.Backend, around func(phase string, fn func())) (run, resume time.Duration, touches uint64) {
	cfgs := make([]cmcp.Config, len(b.cfgs))
	for i, nc := range b.cfgs {
		cfgs[i] = nc.Cfg
	}
	if err := os.Remove(b.journal); err != nil && !os.IsNotExist(err) {
		b.failAll("sweep", err)
		return
	}
	once := func(phase string, executed, loaded int) (*sweep.Outcome, time.Duration, bool) {
		be := newBackend(b.journal)
		var (
			out *sweep.Outcome
			err error
			el  time.Duration
		)
		around(phase, func() {
			t0 := time.Now()
			out, err = sweep.Run(cfgs, sweep.Options{Backend: be, Parallelism: b.parallel})
			el = time.Since(t0)
		})
		if cerr := be.Close(); err == nil {
			err = cerr
		}
		if err == nil && (out.Executed != executed || out.Loaded != loaded) {
			err = fmt.Errorf("executed %d and loaded %d runs, want %d and %d", out.Executed, out.Loaded, executed, loaded)
		}
		if err != nil {
			b.failAll(phase, err)
			return nil, el, false
		}
		for i, res := range out.Results {
			b.check(i, res, nil)
		}
		return out, el, true
	}
	out, run, ok := once("sweep.Run", len(cfgs), 0)
	if !ok {
		return
	}
	for _, res := range out.Results {
		touches += res.Run.Total(cmcp.Touches)
	}
	_, resume, _ = once("sweep.Resume", 0, len(cfgs))
	return run, resume, touches
}

func fileBackend(path string) sweep.Backend { return sweep.NewFileBackend(path) }

// median of a float sample (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func durMedian(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
