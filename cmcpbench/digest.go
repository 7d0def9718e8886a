package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"cmcp"
)

// digest fingerprints everything a run simulated: every per-core
// counter (scanner row included) and finish time, per-tenant counters
// and fault histograms, plus Runtime, Frames and Resident. Host timing
// never enters it, so it is identical on every machine and every
// engine, and any behavioural change moves it.
func digest(res *cmcp.Result) (string, error) {
	run, err := json.Marshal(res.Run)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(run)
	var tail [24]byte
	binary.LittleEndian.PutUint64(tail[0:], uint64(res.Runtime))
	binary.LittleEndian.PutUint64(tail[8:], uint64(res.Frames))
	binary.LittleEndian.PutUint64(tail[16:], uint64(res.Resident))
	h.Write(tail[:])
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

// pinnedFile is the on-disk form of digests.json.
type pinnedFile struct {
	Schema   string `json:"schema"`
	Variants int    `json:"variants"`
	// Digests maps workload → config name → one digest per variant.
	Digests map[string]map[string][]string `json:"digests"`
}

const pinnedSchema = "cmcpbench-digests/v1"

//go:embed digests.json
var pinnedJSON []byte

// Pinned holds the reference digests every run is checked against.
type Pinned struct{ f pinnedFile }

// parsePinned reads a digests.json document.
func parsePinned(data []byte) (*Pinned, error) {
	var f pinnedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if f.Schema != pinnedSchema || f.Variants != Variants {
		return nil, fmt.Errorf("digests.json: schema %q with %d variants, want %q with %d", f.Schema, f.Variants, pinnedSchema, Variants)
	}
	return &Pinned{f: f}, nil
}

// Want returns the pinned digest of one config at one variant.
func (p *Pinned) Want(workload, config string, variant int) (string, error) {
	ds := p.f.Digests[workload][config]
	if len(ds) != Variants || ds[variant] == "" {
		return "", fmt.Errorf("no pinned digest for %s %s variant %d", workload, config, variant)
	}
	return ds[variant], nil
}

// Check compares a result against its pinned digest.
func (p *Pinned) Check(workload, config string, variant int, res *cmcp.Result) error {
	want, err := p.Want(workload, config, variant)
	if err != nil {
		return err
	}
	got, err := digest(res)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s %s variant %d: digest %s, pinned %s", workload, config, variant, got, want)
	}
	return nil
}

// computeDigests simulates every config of every workload at the given
// scales and variants and returns their digests; variants left out
// stay empty.
func computeDigests(scales map[string]float64, variants []int, parallel int) (*Pinned, error) {
	f := pinnedFile{Schema: pinnedSchema, Variants: Variants, Digests: map[string]map[string][]string{}}
	for _, w := range Workloads {
		f.Digests[w.Name] = map[string][]string{}
		var cfgs []cmcp.Config
		var names []string
		var of []int
		for _, v := range variants {
			for _, nc := range w.Build(scaleOf(scales, w), v) {
				cfgs = append(cfgs, nc.Cfg)
				names = append(names, nc.Name)
				of = append(of, v)
			}
		}
		results, err := cmcp.RunMany(cfgs, parallel)
		if err != nil {
			return nil, err
		}
		for i, res := range results {
			d, err := digest(res)
			if err != nil {
				return nil, err
			}
			ds := f.Digests[w.Name][names[i]]
			if ds == nil {
				ds = make([]string, Variants)
				f.Digests[w.Name][names[i]] = ds
			}
			ds[of[i]] = d
		}
	}
	return &Pinned{f: f}, nil
}

// pinAll writes the reference digests of every variant at the default
// scales to path. Re-pinning is a benchmark change: it is done only by
// a fix that changes simulated behaviour on purpose, and that change
// says why.
func pinAll(path string, parallel int) error {
	all := make([]int, Variants)
	for v := range all {
		all[v] = v
	}
	p, err := computeDigests(nil, all, parallel)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(p.f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
