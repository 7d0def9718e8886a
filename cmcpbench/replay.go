package main

import (
	"fmt"
	"time"

	"cmcp"
	"cmcp/internal/mem"
	"cmcp/internal/pagetable"
	"cmcp/internal/pspt"
	"cmcp/internal/sim"
	"cmcp/internal/tlb"
	"cmcp/internal/workload"
)

// maxReplayRecords caps the captured trace prefix each layer replay
// walks, bounding its time and memory at full scale.
const maxReplayRecords = 1 << 20

// maxReplayAllocs caps the AllocRange calls of one device replay; its
// total is extrapolated to the run's fault count.
const maxReplayAllocs = 4096

// opCost is a bulk-timed replay of one layer operation.
type opCost struct {
	N  int64
	Ns int64
}

func (c *opCost) add(o opCost) { c.N += o.N; c.Ns += o.Ns }

// per returns mean nanoseconds per operation (0 when none ran).
func (c opCost) per() float64 {
	if c.N == 0 {
		return 0
	}
	return float64(c.Ns) / float64(c.N)
}

func timeIt(n int, fn func()) opCost {
	t0 := time.Now()
	fn()
	return opCost{N: int64(n), Ns: int64(time.Since(t0))}
}

// captureRecords records the interleaved access trace prefix of a
// config's measured phase: cmcp.CaptureTrace for single workloads, the
// same round-robin interleave over the tenant streams otherwise.
func captureRecords(cfg cmcp.Config) ([]cmcp.TraceRecord, error) {
	if cfg.Tenants == nil {
		wl := cfg.Workload
		if wl.TotalTouches > maxReplayRecords {
			wl.TotalTouches = maxReplayRecords
		}
		t, err := cmcp.CaptureTrace(wl, cfg.Cores, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return t.Records, nil
	}
	layout, err := cfg.Tenants.Build(cfg.Cores)
	if err != nil {
		return nil, err
	}
	streams := layout.Streams(cfg.Seed)
	var recs []cmcp.TraceRecord
	for active := len(streams); active > 0 && len(recs) < maxReplayRecords; {
		active = 0
		for c, s := range streams {
			if a, ok := s.Next(); ok {
				active++
				recs = append(recs, cmcp.TraceRecord{Core: sim.CoreID(c), VPN: a.VPN, Write: a.Write})
			}
		}
	}
	return recs, nil
}

// drainStreams times Build plus a full drain of a config's measured
// streams, standalone: the workload layer's cost without the engine.
func drainStreams(cfg cmcp.Config) (build, next opCost, err error) {
	var streams []workload.Stream
	if cfg.Tenants != nil {
		var l *workload.TenantLayout
		build = timeIt(1, func() { l, err = cfg.Tenants.Build(cfg.Cores) })
		if err != nil {
			return
		}
		streams = l.Streams(cfg.Seed)
	} else {
		var l *workload.Layout
		build = timeIt(1, func() { l, err = cfg.Workload.Build(cfg.Cores) })
		if err != nil {
			return
		}
		streams = l.Streams(cfg.Seed)
	}
	n := 0
	next = timeIt(0, func() {
		for _, s := range streams {
			for {
				if _, ok := s.Next(); !ok {
					break
				}
				n++
			}
		}
	})
	next.N = int64(n)
	return
}

// replayTLB feeds the trace into per-core TLBs (Lookup, Insert on a
// miss), then times invalidating every cached base on every core.
func replayTLB(recs []cmcp.TraceRecord, cores int, size cmcp.PageSize) (lookup, inval opCost) {
	tlbs := make([]*tlb.TLB, cores)
	for i := range tlbs {
		tlbs[i] = tlb.New(tlb.DefaultConfig())
	}
	lookup = timeIt(len(recs), func() {
		for _, r := range recs {
			t := tlbs[r.Core]
			if t.Lookup(r.VPN) == tlb.Miss {
				t.Insert(size.Align(r.VPN), size)
			}
		}
	})
	var bases []sim.PageID
	for _, r := range recs[max(0, len(recs)-4096):] {
		bases = append(bases, size.Align(r.VPN))
	}
	inval = timeIt(len(bases)*cores, func() {
		for _, b := range bases {
			for _, t := range tlbs {
				t.Invalidate(b)
			}
		}
	})
	return lookup, inval
}

// replayPageTable sets one PTE per distinct page of the trace into a
// 4 kB page table, then times a lookup per record.
func replayPageTable(recs []cmcp.TraceRecord) (lookup, set opCost) {
	t := pagetable.New()
	seen := map[sim.PageID]bool{}
	var pages []sim.PageID
	for _, r := range recs {
		if !seen[r.VPN] {
			seen[r.VPN] = true
			pages = append(pages, r.VPN)
		}
	}
	set = timeIt(len(pages), func() {
		for i, p := range pages {
			t.Set(p, pagetable.MakePTE(int64(i), pagetable.Present))
		}
	})
	lookup = timeIt(len(recs), func() {
		for _, r := range recs {
			t.Lookup(r.VPN)
		}
	})
	return lookup, set
}

// replayPSPT maps every (core, page) pair of the trace into a PSPT —
// first core by Map, later ones by the minor-fault sibling copy — then
// times an MMU Touch per record and an access-bit scan per mapping.
func replayPSPT(recs []cmcp.TraceRecord, cores int) (touch, scan opCost, err error) {
	p := pspt.NewSized(cores, 0, nil)
	var bases []sim.PageID
	for _, r := range recs {
		if p.CoreMapCount(r.VPN) <= 0 {
			if _, _, err := p.Map(r.Core, r.VPN, sim.Size4k, int64(len(bases)), pagetable.Present); err != nil {
				return touch, scan, fmt.Errorf("pspt replay: %w", err)
			}
			bases = append(bases, r.VPN)
		} else if _, _, ok := p.Lookup(r.Core, r.VPN); !ok {
			if _, err := p.CopyFromSibling(r.Core, r.VPN, pagetable.Present); err != nil {
				return touch, scan, fmt.Errorf("pspt replay: %w", err)
			}
		}
	}
	touch = timeIt(len(recs), func() {
		for _, r := range recs {
			p.Touch(r.Core, r.VPN, r.Write)
		}
	})
	var dst []sim.CoreID
	scan = timeIt(len(bases), func() {
		for _, b := range bases {
			_, dst = p.ScanAccessed(b, dst[:0])
		}
	})
	return touch, scan, nil
}

// replayDevice drives a device of the run's frame count through
// AllocRange at the run's mapping span, freeing the oldest mapping
// (FIFO) whenever the device is full — the allocator traffic of the
// run's major faults, capped at maxReplayAllocs calls.
func replayDevice(frames int, size cmcp.PageSize, faults uint64) opCost {
	span := int(size.Span())
	calls := int(min(faults, maxReplayAllocs))
	d := mem.NewDevice(frames)
	var live []sim.FrameID
	c := timeIt(calls, func() {
		for i := 0; i < calls; i++ {
			vpn := sim.PageID(i * span)
			for {
				f, err := d.AllocRange(vpn, span)
				if err == nil {
					live = append(live, f)
					break
				}
				for k := 0; k < span; k++ {
					d.Free(live[0] + sim.FrameID(k))
				}
				live = live[1:]
			}
		}
	})
	return c
}
