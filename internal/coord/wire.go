package coord

import (
	"fmt"

	"cmcp/internal/machine"
	"cmcp/internal/obs"
	"cmcp/internal/sim"
	"cmcp/internal/sweep"
)

// machine.Config is almost JSON: the one exception is
// Policy.Factory, a function value with no serializable identity.
// ConfigWire shadows the Policy field with a mirror whose Factory is
// the sweep registry name (see sweep.RegisterPolicy) — the embedded
// Config's own Policy (and its func) is never encoded, Go's JSON
// depth rule sees to that. Probe and Audit are single-run observers
// the sweep layer already rejects, so they are always nil here.
//
// The wire format carries the content key alongside the config, and
// the worker recomputes sweep.Key over the decoded config and refuses
// a mismatch. That drift guard turns every silent skew — version skew
// between coordinator and worker binaries, a registry name bound to a
// different factory, a field lost in transit — into a loud failure
// before any wrong result can be journaled under the right key.

// policyWire mirrors machine.PolicySpec with the factory as its
// registered name.
type policyWire struct {
	Factory    string             `json:"factory,omitempty"`
	Kind       machine.PolicyKind `json:"kind"`
	P          float64            `json:"p"`
	DynamicP   bool               `json:"dynamic_p,omitempty"`
	ScanPeriod sim.Cycles         `json:"scan_period,omitempty"`
	ScanBatch  int                `json:"scan_batch,omitempty"`
}

// configWire is machine.Config with the Policy field made
// serializable. The mirror's JSON name must be exactly "Policy":
// Go's shadowing rule hides the embedded func-carrying field only
// when the two fields' JSON names collide — with a different name
// both would encode, and encoding/json rejects func-typed fields
// even when nil.
type configWire struct {
	machine.Config
	Policy policyWire `json:"Policy"`
}

// toWire encodes cfg for transport. It fails on an unregistered
// factory — such configs cannot be content-keyed either, so the sweep
// layer rejects them long before dispatch.
func toWire(cfg machine.Config) (configWire, error) {
	pw := policyWire{
		Kind:       cfg.Policy.Kind,
		P:          cfg.Policy.P,
		DynamicP:   cfg.Policy.DynamicP,
		ScanPeriod: cfg.Policy.ScanPeriod,
		ScanBatch:  cfg.Policy.ScanBatch,
	}
	if cfg.Policy.Factory != nil {
		name, ok := sweep.RegisteredPolicyName(cfg.Policy.Factory)
		if !ok {
			return configWire{}, fmt.Errorf("coord: config's Policy.Factory is not registered (sweep.RegisterPolicy)")
		}
		pw.Factory = name
	}
	c := cfg
	c.Policy = machine.PolicySpec{} // shadowed; zeroed for hygiene
	c.Probe, c.Audit = nil, nil
	return configWire{Config: c, Policy: pw}, nil
}

// config decodes the wire form back into a runnable machine.Config,
// resolving the factory name through this process's registry.
func (w configWire) config() (machine.Config, error) {
	cfg := w.Config
	cfg.Policy = machine.PolicySpec{
		Kind:       w.Policy.Kind,
		P:          w.Policy.P,
		DynamicP:   w.Policy.DynamicP,
		ScanPeriod: w.Policy.ScanPeriod,
		ScanBatch:  w.Policy.ScanBatch,
	}
	if w.Policy.Factory != "" {
		f, ok := sweep.RegisteredPolicy(w.Policy.Factory)
		if !ok {
			return machine.Config{}, fmt.Errorf("coord: no policy registered as %q in this worker (register it via sweep.RegisterPolicy before starting the worker)", w.Policy.Factory)
		}
		cfg.Policy.Factory = f
	}
	return cfg, nil
}

// HTTP request/response bodies. Every endpoint is POST with a JSON
// body and a JSON reply.

type leaseRequest struct {
	Worker string `json:"worker"`
}

type leaseResponse struct {
	// Done: the sweep is over; the worker should exit.
	Done bool `json:"done,omitempty"`
	// RetryMS: nothing leasable right now; ask again after this long.
	RetryMS int64 `json:"retry_ms,omitempty"`
	// A grant. TTLMS tells the worker how often to heartbeat.
	LeaseID string      `json:"lease_id,omitempty"`
	Key     string      `json:"key,omitempty"`
	Config  *configWire `json:"config,omitempty"`
	TTLMS   int64       `json:"ttl_ms,omitempty"`
	Stolen  bool        `json:"stolen,omitempty"`
}

type heartbeatRequest struct {
	LeaseID string `json:"lease_id"`
}

type resultRequest struct {
	LeaseID string      `json:"lease_id"`
	Entry   sweep.Entry `json:"entry"`
}

type failRequest struct {
	LeaseID string `json:"lease_id"`
	Key     string `json:"key"`
	Error   string `json:"error"`
}

// stateResponse is the GET /state debugging snapshot.
type stateResponse struct {
	Stats    obs.CoordStats `json:"stats"`
	Poisoned []PoisonedKey  `json:"poisoned,omitempty"`
}
