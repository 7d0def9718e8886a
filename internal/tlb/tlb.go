// Package tlb models the per-core data TLBs of the simulated many-core
// and the remote-shootdown machinery. Each core has a small L1 TLB per
// page-size class (4 kB / 64 kB / 2 MB) and a unified L2; replacement
// is FIFO within a class, as in the simple in-order KNC cores. The Phi's
// 64 kB extension caches a whole 16-page group as a single entry, which
// is exactly the TLB-reach benefit the paper measures.
//
// Shootdowns: on x86 a core can only invalidate its own TLB, so
// remapping a page requires an IPI loop over every core that may cache
// the translation. With regular page tables that set is unknown and the
// loop covers all cores; with PSPT it is exactly the mapping cores.
// Package vm charges the corresponding costs from the sim.CostModel.
package tlb

import (
	"fmt"

	"cmcp/internal/dense"
	"cmcp/internal/sim"
)

// HitLevel classifies the outcome of a TLB lookup.
type HitLevel uint8

const (
	// Miss means neither level holds the translation; a page walk runs.
	Miss HitLevel = iota
	// HitL1 is a first-level hit (free).
	HitL1
	// HitL2 is a second-level hit (small penalty, entry promoted).
	HitL2
)

// Config sets the per-core TLB geometry. The defaults follow Knights
// Corner: 64×4 kB and 8×2 MB L1 entries, 32 entries for the
// experimental 64 kB class, and a 64-entry unified L2.
type Config struct {
	L1Entries4k  int
	L1Entries64k int
	L1Entries2M  int
	L2Entries    int
}

// DefaultConfig returns the KNC-like geometry.
func DefaultConfig() Config {
	return Config{L1Entries4k: 64, L1Entries64k: 32, L1Entries2M: 8, L2Entries: 64}
}

// entry is a cached translation, keyed by size-aligned base VPN.
type entry struct {
	size sim.PageSize
}

// fifoSet is a fixed-capacity, fully associative set with FIFO
// replacement and lazy queue cleanup (invalidated entries leave stale
// queue slots that are skipped at eviction time). Presence lives in a
// page-indexed state table (0 = absent, otherwise size+1) instead of a
// map: page IDs are dense small integers, so membership is one array
// read on the per-touch path.
type fifoSet struct {
	cap   int
	n     int // live entries
	sc    *dense.Scratch
	state []uint8 // base -> size+1; 0 = absent
	queue []int32 // FIFO order of bases, with stale slots
	head  int
}

func newFifoSet(capacity, pages int, sc *dense.Scratch) fifoSet {
	// The queue holds live entries plus stale slots from invalidations;
	// compact() trims once the consumed prefix passes 64, so size for
	// that regime to keep append from reallocating.
	return fifoSet{
		cap:   capacity,
		sc:    sc,
		state: sc.U8(pages),
		queue: sc.I32(2*capacity + 80)[:0],
	}
}

func (s *fifoSet) has(base sim.PageID) (entry, bool) {
	if base < sim.PageID(len(s.state)) {
		if v := s.state[base]; v != 0 {
			return entry{size: sim.PageSize(v - 1)}, true
		}
	}
	return entry{}, false
}

func (s *fifoSet) setState(base sim.PageID, v uint8) {
	if base >= sim.PageID(len(s.state)) {
		ns := s.sc.U8(growCap(int(base) + 1))
		copy(ns, s.state)
		s.state = ns
	}
	s.state[base] = v
}

// growCap rounds n up to the next power of two (minimum 8).
func growCap(n int) int {
	c := 8
	for c < n {
		c <<= 1
	}
	return c
}

// insert adds base and returns the entry evicted to make room, if any.
func (s *fifoSet) insert(base sim.PageID, e entry) (sim.PageID, entry, bool) {
	if s.cap <= 0 {
		return 0, entry{}, false
	}
	if _, ok := s.has(base); ok {
		return 0, entry{}, false // refresh: FIFO ignores re-reference
	}
	var evictedBase sim.PageID
	var evicted entry
	var hasEvicted bool
	for s.n >= s.cap {
		// Pop queue head; skip slots whose entry was invalidated.
		vb := sim.PageID(s.queue[s.head])
		s.head++
		if v := s.state[vb]; v != 0 {
			s.state[vb] = 0
			s.n--
			evictedBase, evicted, hasEvicted = vb, entry{size: sim.PageSize(v - 1)}, true
		}
	}
	s.setState(base, uint8(e.size)+1)
	s.n++
	s.queue = append(s.queue, int32(base))
	s.compact()
	return evictedBase, evicted, hasEvicted
}

func (s *fifoSet) invalidate(base sim.PageID) bool {
	if base < sim.PageID(len(s.state)) && s.state[base] != 0 {
		s.state[base] = 0
		s.n--
		return true
	}
	return false
}

func (s *fifoSet) flush() {
	// Every live entry has a queue slot, so clearing the un-consumed
	// suffix empties the state table in O(queue), not O(pages).
	for _, qb := range s.queue[s.head:] {
		s.state[qb] = 0
	}
	s.queue = s.queue[:0]
	s.head = 0
	s.n = 0
}

// compact reclaims queue space when stale slots dominate.
func (s *fifoSet) compact() {
	// Invalidation-heavy traffic (shootdown storms, PSPT rebuilds)
	// leaves stale slots in the un-consumed suffix that only eviction
	// pops would reclaim; a set running below capacity never pops, so
	// the queue would otherwise grow linearly with total inserts. Once
	// it outgrows a small multiple of capacity, rewrite it with live
	// entries only.
	if len(s.queue) > 4*s.cap+64 {
		s.compactLive()
		return
	}
	if s.head > 64 && s.head*2 > len(s.queue) {
		s.queue = append(s.queue[:0], s.queue[s.head:]...)
		s.head = 0
	}
}

// keptBit transiently marks state entries during compaction and
// invariant checking. It is well above any size+1 value (max 3).
const keptBit = 0x80

// compactLive rewrites the queue keeping only each live base's earliest
// slot, in order. That slot alone determines when the entry reaches the
// FIFO head, so the effective eviction order of everything currently
// cached is preserved exactly.
func (s *fifoSet) compactLive() {
	w := 0
	for _, qb := range s.queue[s.head:] {
		if v := s.state[qb]; v != 0 && v&keptBit == 0 {
			s.state[qb] = v | keptBit
			s.queue[w] = qb
			w++
		}
	}
	s.queue = s.queue[:w]
	s.head = 0
	for _, qb := range s.queue {
		s.state[qb] &^= keptBit
	}
}

func (s *fifoSet) len() int { return s.n }

// forEach visits every live entry (order unspecified; audit only).
func (s *fifoSet) forEach(fn func(base sim.PageID, size sim.PageSize)) {
	for b, v := range s.state {
		if v != 0 {
			fn(sim.PageID(b), sim.PageSize(v-1))
		}
	}
}

// checkInvariants verifies the set's internal consistency: the live
// count matches the state table and the capacity bound, and every live
// entry still owns at least one un-consumed queue slot (otherwise it
// could never be evicted).
func (s *fifoSet) checkInvariants(name string) error {
	live := 0
	for _, v := range s.state {
		if v != 0 {
			live++
		}
	}
	if live != s.n {
		return fmt.Errorf("tlb %s: n=%d but %d live state entries", name, s.n, live)
	}
	if s.cap >= 0 && s.n > s.cap {
		return fmt.Errorf("tlb %s: %d live entries exceed capacity %d", name, s.n, s.cap)
	}
	if s.head > len(s.queue) {
		return fmt.Errorf("tlb %s: head %d past queue length %d", name, s.head, len(s.queue))
	}
	covered := 0
	for _, qb := range s.queue[s.head:] {
		if v := s.state[qb]; v != 0 && v&keptBit == 0 {
			s.state[qb] = v | keptBit
			covered++
		}
	}
	for _, qb := range s.queue[s.head:] {
		s.state[qb] &^= keptBit
	}
	if covered != s.n {
		return fmt.Errorf("tlb %s: %d of %d live entries have a queue slot", name, covered, s.n)
	}
	return nil
}

// TLB is one core's data TLB: three L1 size classes plus a unified L2.
// It is not safe for concurrent use; the event engine serializes cores.
// The zero value is unusable; construct with New or NewSized. TLB is a
// plain value so a machine's per-core TLBs pack into one slice.
type TLB struct {
	l1 [3]fifoSet // indexed by sim.PageSize
	l2 fifoSet
}

// New creates a TLB with the given geometry, sizing its page-state
// tables on demand.
func New(cfg Config) *TLB {
	t := NewSized(cfg, 0, nil)
	return &t
}

// NewSized creates a TLB whose state tables are pre-sized for page IDs
// in [0, pages) and drawn from sc (both optional: pages 0 grows on
// demand, sc nil allocates normally).
func NewSized(cfg Config, pages int, sc *dense.Scratch) TLB {
	return TLB{
		l1: [3]fifoSet{
			sim.Size4k:  newFifoSet(cfg.L1Entries4k, pages, sc),
			sim.Size64k: newFifoSet(cfg.L1Entries64k, pages, sc),
			sim.Size2M:  newFifoSet(cfg.L1Entries2M, pages, sc),
		},
		l2: newFifoSet(cfg.L2Entries, pages, sc),
	}
}

var sizes = [3]sim.PageSize{sim.Size4k, sim.Size64k, sim.Size2M}

// Lookup probes the TLB for vpn. Hardware probes each size class with
// the correspondingly aligned tag. An L2 hit promotes the entry to the
// proper L1 class.
func (t *TLB) Lookup(vpn sim.PageID) HitLevel {
	for _, s := range sizes {
		if _, ok := t.l1[s].has(s.Align(vpn)); ok {
			return HitL1
		}
	}
	for _, s := range sizes {
		base := s.Align(vpn)
		if e, ok := t.l2.has(base); ok && e.size == s {
			t.l2.invalidate(base)
			t.installL1(base, e)
			return HitL2
		}
	}
	return Miss
}

// Insert caches the translation for the mapping of the given size
// covering vpn, as the hardware does after a successful page walk. It
// reports whether the translation is now in L1: a geometry with no L1
// entries for the size class caches nothing.
func (t *TLB) Insert(vpn sim.PageID, size sim.PageSize) bool {
	base := size.Align(vpn)
	t.installL1(base, entry{size: size})
	return t.l1[size].cap > 0
}

func (t *TLB) installL1(base sim.PageID, e entry) {
	if vb, ve, ok := t.l1[e.size].insert(base, e); ok {
		// L1 victim is demoted into the unified L2.
		t.l2.insert(vb, ve)
	}
}

// Invalidate drops any cached translation covering vpn (the INVLPG
// operation). It reports whether an entry was actually present, which
// determines whether the invalidation had any effect.
func (t *TLB) Invalidate(vpn sim.PageID) bool {
	hit := false
	for _, s := range sizes {
		base := s.Align(vpn)
		if t.l1[s].invalidate(base) {
			hit = true
		}
		if e, ok := t.l2.has(base); ok && e.size == s {
			t.l2.invalidate(base)
			hit = true
		}
	}
	return hit
}

// Flush empties the TLB (full flush, e.g. on context switch).
func (t *TLB) Flush() {
	for _, s := range sizes {
		t.l1[s].flush()
	}
	t.l2.flush()
}

// Entries returns the current number of cached translations across
// both levels (diagnostics).
func (t *TLB) Entries() int {
	n := t.l2.len()
	for _, s := range sizes {
		n += t.l1[s].len()
	}
	return n
}

// ForEachEntry visits every cached translation; level is 1 or 2. The
// invariant auditor cross-checks each against the page tables.
func (t *TLB) ForEachEntry(fn func(base sim.PageID, size sim.PageSize, level int)) {
	for _, s := range sizes {
		t.l1[s].forEach(func(base sim.PageID, size sim.PageSize) { fn(base, size, 1) })
	}
	t.l2.forEach(func(base sim.PageID, size sim.PageSize) { fn(base, size, 2) })
}

// CheckInvariants verifies the internal consistency of all four sets.
func (t *TLB) CheckInvariants() error {
	for _, s := range sizes {
		if err := t.l1[s].checkInvariants(fmt.Sprintf("L1/%v", s)); err != nil {
			return err
		}
	}
	return t.l2.checkInvariants("L2")
}
