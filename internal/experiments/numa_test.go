package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cmcp/internal/sim"
	"cmcp/internal/sweep"
	"cmcp/internal/workload"
)

// TestRejectTenantsUnderFigures pins the CLI bugfix at the experiments
// layer: every paper-figure experiment must fail loudly when
// a tenant spec is supplied — cmcpsim used to silently drop -tenants
// under -exp, producing single-tenant results labelled as tenant runs.
func TestRejectTenantsUnderFigures(t *testing.T) {
	spec := workload.DefaultTenantSpec(4, 1.1, 0)
	o := quickOpts()
	o.Tenants = &spec
	for _, id := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "table1", "sense", "numa"} {
		if _, err := ByID(id, o); err == nil {
			t.Errorf("%s silently accepted a tenant spec", id)
		} else if !strings.Contains(err.Error(), "tenants") {
			t.Errorf("%s: error %v does not point at the tenants experiment", id, err)
		}
	}
}

// TestTenantGridQuick runs the one experiment that DOES consume the
// tenant spec, with and without an explicit spec.
func TestTenantGridQuick(t *testing.T) {
	o := quickOpts()
	rep, err := TenantGrid(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "tenants" || len(rep.Tables) != 1 {
		t.Fatalf("report shape: %s, %d tables", rep.ID, len(rep.Tables))
	}
	tab := rep.Tables[0]
	if len(tab.Rows) != 4 { // FIFO, CLOCK, LRU, CMCP
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// fairness column must be a real Jain index in (0, 1].
		f, err := strconv.ParseFloat(row.Cells[len(row.Cells)-1], 64)
		if err != nil || f <= 0 || f > 1 {
			t.Errorf("%s: fairness cell %v", row.Label, row.Cells[len(row.Cells)-1])
		}
	}
	// An explicit spec must flow through (and via ByID).
	spec := workload.DefaultTenantSpec(8, 1.3, 100)
	o.Tenants = &spec
	rep2, err := ByID("tenants", o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep2.Title, "8 tenants") {
		t.Errorf("explicit spec ignored: %q", rep2.Title)
	}
}

// TestNumaQuick runs the 2-socket grid at quick scale and checks the
// tentpole's measurable claim end to end: PSPT's shootdown filtering
// must reduce cross-socket IPIs versus the regular-table broadcast,
// and the run must journal under the v4 schema.
func TestNumaQuick(t *testing.T) {
	o := quickOpts()
	journal := filepath.Join(t.TempDir(), "numa.jsonl")
	backend := sweep.NewFileBackend(journal)
	o.Backend = backend
	rep, err := Numa(o)
	backend.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "numa" || len(rep.Tables) != 4 {
		t.Fatalf("report shape: %s, %d tables", rep.ID, len(rep.Tables))
	}
	for _, tab := range rep.Tables {
		var regularIPI, psptIPI, psptFiltered uint64
		for _, row := range tab.Rows {
			ipi, err := strconv.ParseUint(row.Cells[1], 10, 64)
			if err != nil {
				t.Fatalf("%s: cross-socket IPI cell %q", row.Label, row.Cells[1])
			}
			switch row.Label {
			case "regular PT + LRU":
				regularIPI = ipi
			case "PSPT + CMCP":
				psptIPI = ipi
				if psptFiltered, err = strconv.ParseUint(row.Cells[2], 10, 64); err != nil {
					t.Fatalf("%s: filtered cell %q", row.Label, row.Cells[2])
				}
			}
		}
		if regularIPI == 0 {
			t.Errorf("%s: regular-PT broadcast crossed no socket", tab.Title)
		}
		if psptIPI >= regularIPI {
			t.Errorf("%s: PSPT+CMCP cross-socket IPIs %d, want < regular LRU's %d", tab.Title, psptIPI, regularIPI)
		}
		if psptFiltered == 0 {
			t.Errorf("%s: PSPT filtered no shootdown targets", tab.Title)
		}
	}
	// The journal must exist, parse under the current schema, and hold
	// every grid run exactly once.
	f, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, skipped, err := sweep.ReadJournalLenient(f)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(entries) != 4*len(numaLines()) {
		t.Errorf("journal: %d entries (%d skipped), want %d", len(entries), skipped, 4*len(numaLines()))
	}
	// A caller-supplied topology must be rejected (numa owns its grid).
	o2 := quickOpts()
	o2.Topology = sim.DefaultTopology(2, 4)
	if _, err := Numa(o2); err == nil {
		t.Error("numa accepted a caller-supplied topology")
	}
}
