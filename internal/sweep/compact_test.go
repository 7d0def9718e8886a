package sweep

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCompactJournalReplaysBitIdentical pins the compaction satellite:
// a journal bloated with duplicate entries and a torn tail compacts to
// last-entry-per-key, and a sweep resumed from the compacted journal
// merges bit-identically while executing nothing.
func TestCompactJournalReplaysBitIdentical(t *testing.T) {
	cfgs := grid()
	ref, err := Run(cfgs, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}

	j := filepath.Join(t.TempDir(), "fat.jsonl")
	if _, err := runFile(cfgs, j, Options{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}

	// Bloat the journal: duplicate every entry line (a retried shard or
	// duplicate-result race does exactly this) and tear the tail.
	data, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(data)
	f, err := os.OpenFile(j, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range lines[1:] { // skip header
		f.WriteString(line + "\n")
	}
	f.WriteString(`{"key":"dead`)
	f.Close()

	st, err := CompactJournal(j, "")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kept != len(cfgs) || st.Dropped != len(cfgs) || st.Skipped != 1 {
		t.Fatalf("CompactStats = %+v, want Kept=%d Dropped=%d Skipped=1", st, len(cfgs), len(cfgs))
	}

	out, err := runFile(cfgs, j, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Executed != 0 || out.Loaded != len(cfgs) {
		t.Fatalf("compacted resume executed %d, loaded %d, want 0 and %d", out.Executed, out.Loaded, len(cfgs))
	}
	if !reflect.DeepEqual(out.Results, ref.Results) {
		t.Fatal("compacted journal replay differs from uninterrupted sweep")
	}
}

// TestCompactCanonical pins the property the chaos CI job relies on:
// two journals that witnessed the same completed runs — in different
// orders, with different duplication — compact to byte-identical
// files. Compaction is the canonicalizer that makes `cmp` meaningful.
func TestCompactCanonical(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	if _, err := runFile(grid(), a, Options{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}

	// Journal B: same entries, reversed, with one duplicated.
	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(data)
	b := filepath.Join(dir, "b.jsonl")
	bf, err := os.Create(b)
	if err != nil {
		t.Fatal(err)
	}
	bf.WriteString(lines[0] + "\n") // header
	for i := len(lines) - 1; i >= 1; i-- {
		bf.WriteString(lines[i] + "\n")
	}
	bf.WriteString(lines[1] + "\n")
	bf.Close()

	ca := filepath.Join(dir, "a.compact")
	cb := filepath.Join(dir, "b.compact")
	if _, err := CompactJournal(a, ca); err != nil {
		t.Fatal(err)
	}
	if _, err := CompactJournal(b, cb); err != nil {
		t.Fatal(err)
	}
	da, _ := os.ReadFile(ca)
	db, _ := os.ReadFile(cb)
	if string(da) != string(db) {
		t.Fatal("same run set, different compacted bytes")
	}

	// The source of an out-of-place compaction must be untouched.
	after, _ := os.ReadFile(a)
	if string(after) != string(data) {
		t.Fatal("CompactJournal with out set modified its source")
	}
}

// TestCompactJournalMissingSource: compacting nothing must not conjure
// an empty journal into existence.
func TestCompactJournalMissingSource(t *testing.T) {
	if _, err := CompactJournal(filepath.Join(t.TempDir(), "absent.jsonl"), ""); err == nil {
		t.Fatal("compacting a missing journal succeeded")
	}
}

func splitLines(data []byte) []string {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	return lines
}
