// Package coord is the crash-tolerant distribution layer of the sweep
// harness: an HTTP coordinator that owns a sweep grid and hands out
// content-key leases to worker processes, plus the worker client that
// runs them (see Worker).
//
// The design splits state by durability. Everything that matters —
// which runs are complete, and their full results — lives in the sweep
// journal, written durably before any result is acknowledged; the
// coordinator's own lease table is pure soft state. A worker that
// dies mid-lease simply stops heartbeating: its lease expires, the key
// returns to the queue with capped exponential backoff, and another
// worker picks it up. A coordinator that dies loses only leases; on
// restart the sweep layer reloads the journal and re-dispatches only
// the runs still missing. Because every run is deterministic, the
// duplicate executions those recoveries allow are harmless: duplicate
// results agree bit for bit, and journal compaction (sweep.Compact)
// erases the evidence. The invariant the chaos tests pin is exactly
// that: a sweep surviving any mix of worker kills, coordinator
// restarts, and lease expirations merges bit-identically to an
// uninterrupted local sweep.
//
// A key whose config crashes the worker every time is not allowed to
// wedge the sweep: after MaxAttempts failed leases (a lease expiry
// counts as an attempt) the key is quarantined as poisoned — its slot
// reports an error, every other key completes normally, and the
// poisoned-key report names the survivors' graveyard.
package coord

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cmcp/internal/machine"
	"cmcp/internal/obs"
	"cmcp/internal/sweep"
)

// Options parameterize a Coordinator.
type Options struct {
	// LeaseTTL is how long a lease survives without a heartbeat before
	// the coordinator presumes its worker dead (default 15s).
	LeaseTTL time.Duration
	// MaxAttempts is how many failed leases (expiry or reported
	// failure) a key gets before it is quarantined as poisoned
	// (default 3).
	MaxAttempts int
	// BackoffBase is the requeue delay after a key's first failed
	// attempt; each further attempt doubles it (default 1s).
	BackoffBase time.Duration
	// BackoffCap bounds the exponential backoff (default 30s).
	BackoffCap time.Duration
	// MaxLeasesPerKey caps concurrent leases on one key — the
	// work-stealing bound. 2 means one speculative backup lease may
	// shadow a straggler (default 2).
	MaxLeasesPerKey int
	// StealAfter is how long a key's oldest lease must have been
	// running before an idle worker may steal a backup lease on it
	// (default LeaseTTL/2). Zero means the default; negative disables
	// stealing.
	StealAfter time.Duration
	// Now is the clock, injectable for tests (default time.Now).
	Now func() time.Time
	// Progress, when non-nil, is advanced as keys retry and poison
	// (completions flow through the sweep runner's own notify path).
	Progress *obs.Progress
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = time.Second
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 30 * time.Second
	}
	if o.MaxLeasesPerKey <= 0 {
		o.MaxLeasesPerKey = 2
	}
	if o.StealAfter == 0 {
		o.StealAfter = o.LeaseTTL / 2
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// PoisonedKey records one quarantined config for the report.
type PoisonedKey struct {
	Key      string `json:"key"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Attempts int    `json:"attempts"`
	LastErr  string `json:"last_err"`
}

type unitState int

const (
	unitPending unitState = iota
	unitLeased
	unitDone
	unitPoisoned
	unitAborted
)

// unit is one content key's scheduling state within the current batch.
type unit struct {
	key       string
	cfg       machine.Config
	idx       int // slot in the batch's results
	state     unitState
	attempts  int       // lease grants that ended badly
	notBefore time.Time // backoff gate while pending
	leases    map[string]*lease
	lastErr   string
}

// lease is one worker's claim on one unit — pure soft state.
type lease struct {
	id      string
	unit    *unit
	worker  string
	granted time.Time
	beat    time.Time
}

// batch is one Dispatch call in flight: a slice of units whose
// completions flow back through the sweep runner's notify callback.
type batch struct {
	notify    func(int, *machine.Result, error)
	results   []*machine.Result
	errs      []error
	remaining int
	done      chan struct{}
}

// Coordinator owns the sweep grid and the lease table. It implements
// sweep.Runner, so a coordinated sweep is an ordinary sweep.Run with
// Options.Runner set — planning, journaling, resume, and the
// deterministic merge are untouched.
type Coordinator struct {
	opt Options

	mu      sync.Mutex
	units   map[string]*unit
	queue   []string // pending dispatch order (longest-first upstream)
	leases  map[string]*lease
	batch   *batch
	orphans map[string]sweep.Entry // results for keys not (yet) enqueued
	// poisoned accumulates the quarantine report across batches.
	poisoned []PoisonedKey
	stats    obs.CoordStats
	leaseSeq uint64
	finished bool

	httpState // server plumbing, in http.go
}

// New returns an idle coordinator. Call Start to serve workers,
// then use it as sweep.Options.Runner (directly or via
// experiments.Options.Runner).
func New(opt Options) *Coordinator {
	return &Coordinator{
		opt:     opt.withDefaults(),
		units:   map[string]*unit{},
		leases:  map[string]*lease{},
		orphans: map[string]sweep.Entry{},
	}
}

// Run implements sweep.Runner: it enqueues the batch, serves leases to
// workers until every key is done or poisoned, and returns results
// aligned with cfgs — nil plus a joined error for poisoned keys, the
// machine.RunManyNotify contract. parallelism is ignored; the worker
// fleet decides its own.
func (c *Coordinator) Run(cfgs []machine.Config, keys []string, parallelism int, notify func(i int, res *machine.Result, err error)) ([]*machine.Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	b := &batch{
		notify:    notify,
		results:   make([]*machine.Result, len(cfgs)),
		remaining: len(cfgs),
		done:      make(chan struct{}),
	}

	c.mu.Lock()
	if c.batch != nil {
		c.mu.Unlock()
		return nil, errors.New("coord: a batch is already in flight (one Dispatch at a time)")
	}
	// A new batch owns the unit table outright. Leases from a previous
	// batch are dead on arrival — their heartbeats get 410, and any
	// late result lands in the orphan stash below.
	c.units = make(map[string]*unit, len(keys))
	c.leases = map[string]*lease{}
	c.queue = c.queue[:0]
	c.batch = b
	for i, key := range keys {
		u := &unit{key: key, cfg: cfgs[i], idx: i, leases: map[string]*lease{}}
		c.units[key] = u
		// Adopt orphans: a result that arrived before its key was
		// enqueued (worker finishing across a coordinator restart, or
		// ahead of a later batch) completes the unit instantly.
		if e, ok := c.orphans[key]; ok {
			delete(c.orphans, key)
			c.completeLocked(u, e)
			continue
		}
		c.queue = append(c.queue, key)
	}
	done := b.remaining == 0
	if done {
		c.batch = nil
	}
	c.mu.Unlock()
	if !done {
		<-b.done
	}

	c.mu.Lock()
	errs := b.errs
	c.mu.Unlock()
	return b.results, errors.Join(errs...)
}

// Finish tells the coordinator no more batches are coming: workers
// asking for leases are told to exit.
func (c *Coordinator) Finish() {
	c.mu.Lock()
	c.finished = true
	c.mu.Unlock()
}

// Abort fails every unresolved unit of the in-flight batch with err —
// the deliberate-shutdown path (Close calls it). The journal keeps
// every run completed so far, so a re-run of the same sweep against
// the same journal resumes exactly where the abort cut it off; that
// re-run IS the coordinator-restart recovery story. Results that
// arrive after an abort are stashed as orphans for the restarted
// batch to adopt.
func (c *Coordinator) Abort(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, u := range c.units {
		switch u.state {
		case unitDone, unitPoisoned, unitAborted:
			continue
		}
		u.state = unitAborted
		c.finishUnitLocked(u, nil, fmt.Errorf("aborted: %w", err))
	}
}

// Stats returns a snapshot of the lease-table gauges and lifetime
// counters (see obs.CoordStats).
func (c *Coordinator) Stats() obs.CoordStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	for _, u := range c.units {
		switch u.state {
		case unitPending:
			s.KeysPending++
		case unitLeased:
			s.KeysLeased++
		}
	}
	return s
}

// PoisonedReport returns every key quarantined so far, sorted by key.
func (c *Coordinator) PoisonedReport() []PoisonedKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]PoisonedKey(nil), c.poisoned...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// LeaseGrant is a successful lease: the worker owns key until it
// stops heartbeating for TTL.
type LeaseGrant struct {
	LeaseID string
	Key     string
	Config  machine.Config
	TTL     time.Duration
	Stolen  bool // a speculative backup lease on a straggler
}

// Lease hands out the next unit of work. Exactly one of the three
// outcomes holds: a grant; wait>0 (come back after that long); or
// done=true (the sweep is over, exit).
func (c *Coordinator) Lease(worker string) (grant *LeaseGrant, wait time.Duration, done bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opt.Now()
	c.reapLocked(now)

	if c.batch == nil {
		if c.finished {
			return nil, 0, true
		}
		// Between batches: the next Dispatch may arrive any moment.
		return nil, c.opt.LeaseTTL / 4, false
	}

	// Pending queue, skipping stale entries and backoff-gated keys.
	// earliest tracks when the nearest gated key unlocks, for the wait
	// hint.
	var earliest time.Time
	kept := c.queue[:0]
	var pick *unit
	for _, key := range c.queue {
		u := c.units[key]
		if u == nil || u.state != unitPending {
			continue // stale: completed or leased out of band
		}
		if pick == nil && !u.notBefore.After(now) && len(u.leases) < c.opt.MaxLeasesPerKey {
			pick = u
			continue // granted: drop from queue
		}
		if u.notBefore.After(now) && (earliest.IsZero() || u.notBefore.Before(earliest)) {
			earliest = u.notBefore
		}
		kept = append(kept, key)
	}
	c.queue = kept
	if pick != nil {
		return c.grantLocked(pick, worker, now, false), 0, false
	}

	// Work stealing: nothing pending, so shadow the longest-running
	// straggler with a speculative backup lease — the run is
	// deterministic, so whichever copy finishes first wins and the
	// other's result is an idempotent duplicate.
	if c.opt.StealAfter >= 0 {
		var victim *unit
		var oldest time.Time
		for _, u := range c.units {
			if u.state != unitLeased || len(u.leases) >= c.opt.MaxLeasesPerKey {
				continue
			}
			first := time.Time{}
			for _, l := range u.leases {
				if first.IsZero() || l.granted.Before(first) {
					first = l.granted
				}
			}
			if now.Sub(first) < c.opt.StealAfter {
				continue
			}
			if victim == nil || first.Before(oldest) || (first.Equal(oldest) && u.key < victim.key) {
				victim, oldest = u, first
			}
		}
		if victim != nil {
			c.stats.LeasesStolen++
			return c.grantLocked(victim, worker, now, true), 0, false
		}
	}

	wait = c.opt.LeaseTTL / 4
	if !earliest.IsZero() {
		if d := earliest.Sub(now); d < wait {
			wait = d
		}
	}
	if wait < 10*time.Millisecond {
		wait = 10 * time.Millisecond
	}
	return nil, wait, false
}

// Heartbeat extends a lease; ok=false means the lease is gone (expired
// or its unit already completed) and the worker should stop renewing —
// though a finished run is still worth posting: results are accepted
// by key, not by lease.
func (c *Coordinator) Heartbeat(leaseID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opt.Now()
	c.reapLocked(now)
	l, ok := c.leases[leaseID]
	if !ok {
		return false
	}
	l.beat = now
	c.stats.Heartbeats++
	return true
}

// Result delivers one completed run. It is idempotent by content key:
// duplicates (a worker finishing after its lease expired, a stolen
// lease's loser, a retry landing twice) are counted and discarded —
// deterministic runs make every copy interchangeable. A result for a
// key not currently enqueued is stashed and adopted when the key
// appears. The batch's notify callback runs synchronously here, so
// when Result returns, the entry is journaled — the ack the worker
// gets is a durability receipt.
func (c *Coordinator) Result(leaseID string, e sweep.Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(c.opt.Now())
	if l, ok := c.leases[leaseID]; ok {
		delete(c.leases, leaseID)
		delete(l.unit.leases, leaseID)
	}
	if e.Key == "" || e.Run == nil || e.Run.Cores != e.Cores {
		return fmt.Errorf("coord: malformed result entry for key %q", e.Key)
	}
	u, ok := c.units[e.Key]
	if !ok || u.state == unitAborted {
		// Unknown (or aborted-batch) key: stash for adoption by the
		// batch that will want it — typically the restarted sweep.
		c.orphans[e.Key] = e
		return nil
	}
	switch u.state {
	case unitDone, unitPoisoned:
		c.stats.DuplicateResults++
		return nil
	}
	c.completeLocked(u, e)
	return nil
}

// Fail reports a run error from a worker. The key's attempt count
// grows; under MaxAttempts it requeues behind exponential backoff,
// at MaxAttempts it is quarantined as poisoned.
func (c *Coordinator) Fail(leaseID, key, errMsg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(c.opt.Now())
	if l, ok := c.leases[leaseID]; ok {
		delete(c.leases, leaseID)
		delete(l.unit.leases, leaseID)
	}
	u, ok := c.units[key]
	if !ok || u.state == unitDone || u.state == unitPoisoned {
		return
	}
	c.failUnitLocked(u, errMsg)
}

// grantLocked creates a lease on u for worker.
func (c *Coordinator) grantLocked(u *unit, worker string, now time.Time, stolen bool) *LeaseGrant {
	c.leaseSeq++
	l := &lease{
		id:      fmt.Sprintf("lease-%d", c.leaseSeq),
		unit:    u,
		worker:  worker,
		granted: now,
		beat:    now,
	}
	u.leases[l.id] = l
	u.state = unitLeased
	c.leases[l.id] = l
	c.stats.LeasesGranted++
	return &LeaseGrant{LeaseID: l.id, Key: u.key, Config: u.cfg, TTL: c.opt.LeaseTTL, Stolen: stolen}
}

// reapLocked expires every lease whose worker has gone silent. Losing
// a backup lease is free; losing a unit's LAST lease is a failed
// attempt and routes through the retry/poison machinery.
func (c *Coordinator) reapLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Sub(l.beat) <= c.opt.LeaseTTL {
			continue
		}
		delete(c.leases, id)
		delete(l.unit.leases, id)
		c.stats.LeasesExpired++
		u := l.unit
		if u.state == unitLeased && len(u.leases) == 0 {
			c.failUnitLocked(u, fmt.Sprintf("lease expired (worker %s presumed dead)", l.worker))
		}
	}
}

// failUnitLocked records a failed attempt on u: requeue with backoff,
// or poison at the attempt cap.
func (c *Coordinator) failUnitLocked(u *unit, errMsg string) {
	u.attempts++
	u.lastErr = errMsg
	if u.attempts >= c.opt.MaxAttempts {
		u.state = unitPoisoned
		c.stats.KeysPoisoned++
		if c.opt.Progress != nil {
			c.opt.Progress.NotePoisoned(1)
		}
		c.poisoned = append(c.poisoned, PoisonedKey{
			Key:      u.key,
			Workload: u.cfg.Workload.Name,
			Seed:     u.cfg.Seed,
			Attempts: u.attempts,
			LastErr:  errMsg,
		})
		err := fmt.Errorf("coord: key %s (workload %q, seed %d) poisoned after %d attempts: %s",
			u.key, u.cfg.Workload.Name, u.cfg.Seed, u.attempts, errMsg)
		c.finishUnitLocked(u, nil, err)
		return
	}
	u.state = unitPending
	backoff := c.opt.BackoffBase << (u.attempts - 1)
	if backoff > c.opt.BackoffCap || backoff <= 0 {
		backoff = c.opt.BackoffCap
	}
	u.notBefore = c.opt.Now().Add(backoff)
	c.stats.Retries++
	if c.opt.Progress != nil {
		c.opt.Progress.NoteRetried()
	}
	c.queue = append(c.queue, u.key)
}

// completeLocked marks u done with a successful result.
func (c *Coordinator) completeLocked(u *unit, e sweep.Entry) {
	u.state = unitDone
	c.stats.KeysDone++
	c.finishUnitLocked(u, e.Result(u.cfg), nil)
}

// finishUnitLocked retires u's slot in the batch: drops leases, fires
// notify (under the lock — for results, that is the journal append the
// worker's ack waits on), and closes the batch when it was the last.
func (c *Coordinator) finishUnitLocked(u *unit, res *machine.Result, err error) {
	for id := range u.leases {
		delete(c.leases, id)
		delete(u.leases, id)
	}
	b := c.batch
	if b == nil {
		return
	}
	b.results[u.idx] = res
	if err != nil {
		b.errs = append(b.errs, fmt.Errorf("coord: run %d: %w", u.idx, err))
	}
	if b.notify != nil {
		b.notify(u.idx, res, err)
	}
	b.remaining--
	if b.remaining == 0 {
		c.batch = nil
		close(b.done)
	}
}
