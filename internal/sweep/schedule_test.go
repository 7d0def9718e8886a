package sweep

import (
	"path/filepath"
	"reflect"
	"testing"

	"cmcp/internal/machine"
	"cmcp/internal/sim"
)

// TestOrderLongestFirst pins the LPT reorder: known runtimes first,
// descending; unknown keys after, in original order; cfgs stay aligned
// with keys.
func TestOrderLongestFirst(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e"}
	cfgs := make([]machine.Config, len(keys))
	for i := range cfgs {
		cfgs[i].Seed = uint64(i)
	}
	runtimes := map[string]sim.Cycles{"b": 10, "d": 30, "e": 20}

	OrderLongestFirst(keys, cfgs, runtimes)

	want := []string{"d", "e", "b", "a", "c"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	wantSeeds := []uint64{3, 4, 1, 0, 2}
	for i, c := range cfgs {
		if c.Seed != wantSeeds[i] {
			t.Fatalf("cfgs misaligned after reorder: seeds %v", cfgs)
		}
	}

	// No runtimes: order untouched.
	keys2 := []string{"x", "y"}
	cfgs2 := make([]machine.Config, 2)
	OrderLongestFirst(keys2, cfgs2, nil)
	if keys2[0] != "x" || keys2[1] != "y" {
		t.Fatal("empty runtime map must not reorder")
	}
}

// TestScheduleFromJournal pins the end-to-end satellite: a prior
// journal's simulated runtimes feed RuntimesByKey, Options.ScheduleFrom
// reorders execution, and — because the merge is grid-ordered — the
// scheduled sweep's results are bit-identical to the unscheduled one.
func TestScheduleFromJournal(t *testing.T) {
	cfgs := grid()
	j := filepath.Join(t.TempDir(), "prior.jsonl")
	ref, err := runFile(cfgs, j, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	runtimes, err := RuntimesByKey(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(runtimes) != len(cfgs) {
		t.Fatalf("RuntimesByKey found %d keys, want %d", len(runtimes), len(cfgs))
	}
	for k, c := range runtimes {
		if c == 0 {
			t.Errorf("key %s has zero recorded runtime", k)
		}
	}

	// A fresh sweep scheduled from the prior journal must match the
	// reference exactly (ordering is wall-clock-only).
	out, err := Run(cfgs, Options{ScheduleFrom: j, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Results, ref.Results) {
		t.Fatal("scheduled sweep differs from reference")
	}

	// A missing schedule journal is a best-effort no-op, not an error.
	if _, err := Run(cfgs, Options{ScheduleFrom: filepath.Join(t.TempDir(), "absent.jsonl"), Parallelism: 2}); err != nil {
		t.Fatalf("missing ScheduleFrom journal errored: %v", err)
	}
}
