package experiments

import (
	"path/filepath"
	"reflect"
	"testing"

	"cmcp/internal/fault"
	"cmcp/internal/obs"
	"cmcp/internal/sweep"
)

// These tests pin the experiment harness's sweep-runner integration:
// the CLI's fault flags actually reach the generated configs, and a
// journaled experiment resumes without re-executing anything.

func TestFaultsReachGeneratedConfigs(t *testing.T) {
	// The -fault-rate/-fault-seed regression: Options.Faults must land
	// in every config the harness generates, not be silently dropped.
	o := quickOpts()
	o.Faults = fault.Uniform(7, 1e-4)
	for _, spec := range o.apps() {
		cfg := o.baseConfig(spec, 4)
		if cfg.Faults != o.Faults {
			t.Fatalf("%s: baseConfig dropped Faults", spec.Name)
		}
	}

	// And a full quick experiment must survive the injected faults.
	o.Faults = fault.Uniform(7, 1e-5)
	if _, err := Fig8(o); err != nil {
		t.Fatalf("fig8 under fault injection: %v", err)
	}
}

func TestExperimentJournalResume(t *testing.T) {
	o := quickOpts()
	ref, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}

	jo := quickOpts()
	backend := sweep.NewFileBackend(filepath.Join(t.TempDir(), "fig8.jsonl"))
	defer backend.Close()
	jo.Backend = backend
	jo.Progress = obs.NewProgress()
	first, err := Fig8(jo)
	if err != nil {
		t.Fatal(err)
	}
	s := jo.Progress.Snapshot()
	if s.Executed == 0 || s.Loaded != 0 || s.Missing != 0 {
		t.Fatalf("first journaled run: %+v", s)
	}
	if !reflect.DeepEqual(first.Tables, ref.Tables) {
		t.Fatal("journaled run differs from plain run")
	}

	// Second run with the same journal: everything loads, nothing runs.
	jo.Progress = obs.NewProgress()
	second, err := Fig8(jo)
	if err != nil {
		t.Fatal(err)
	}
	s = jo.Progress.Snapshot()
	if s.Executed != 0 {
		t.Fatalf("resumed run re-executed %d runs", s.Executed)
	}
	if s.Loaded != s.Total {
		t.Fatalf("resumed run loaded %d of %d", s.Loaded, s.Total)
	}
	if !reflect.DeepEqual(second.Tables, ref.Tables) {
		t.Fatal("resumed run differs from plain run")
	}
}
