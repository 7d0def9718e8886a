package main

import (
	"bufio"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// parse runs parseArgs with flag-package chatter discarded.
func parse(args ...string) (*cliFlags, mode, error) {
	return parseArgs(args, io.Discard)
}

// modeBase is a minimal accepted command line for each mode.
var modeBase = map[mode][]string{
	modeCompact: {"-compact-journal", "j.jsonl"},
	modeWorker:  {"-worker", "http://127.0.0.1:9152"},
	modeRun:     {"-run"},
	modeExp:     {"-exp", "fig7"},
}

// flagValue returns a parseable value for the named flag.
func flagValue(t *testing.T, name string) string {
	t.Helper()
	fs, _ := newFlagSet(io.Discard)
	fl := fs.Lookup(name)
	if fl == nil {
		t.Fatalf("no flag -%s", name)
	}
	if b, ok := fl.Value.(interface{ IsBoolFlag() bool }); ok && b.IsBoolFlag() {
		return "true"
	}
	if fl.DefValue != "" {
		return fl.DefValue
	}
	return "x"
}

// allFlags lists every flag cmcpsim defines.
func allFlags() []string {
	fs, _ := newFlagSet(io.Discard)
	var names []string
	fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
	return names
}

// TestModeFlagSetsAreWellFormed pins the consumed-flag tables against
// the flag set: every listed or ruled flag exists, and every flag is
// read by at least one mode.
func TestModeFlagSetsAreWellFormed(t *testing.T) {
	fs, _ := newFlagSet(io.Discard)
	read := make(map[string]bool)
	for m, names := range modeFlags {
		for _, name := range names {
			if fs.Lookup(name) == nil {
				t.Errorf("%s lists undefined flag -%s", m, name)
			}
			read[name] = true
		}
	}
	for _, r := range flagRules {
		if fs.Lookup(r.flag) == nil {
			t.Errorf("rule names undefined flag -%s", r.flag)
		}
	}
	for _, name := range allFlags() {
		if !read[name] {
			t.Errorf("flag -%s is read by no mode", name)
		}
	}
}

// TestUnconsumedFlagsRejected is the mode × flag table: every flag
// outside a mode's consumed set fails that mode with an error naming
// the flag.
func TestUnconsumedFlagsRejected(t *testing.T) {
	for m, base := range modeBase {
		consumed := make(map[string]bool)
		for _, name := range modeFlags[m] {
			consumed[name] = true
		}
		for _, name := range allFlags() {
			if consumed[name] {
				continue
			}
			args := append(append([]string(nil), base...), "-"+name+"="+flagValue(t, name))
			if _, _, err := parse(args...); err == nil {
				t.Errorf("%s accepted: ignored flag -%s", m, name)
			} else if !strings.Contains(err.Error(), "-"+name) {
				t.Errorf("%s: error %q does not name -%s", m, err, name)
			}
		}
	}
}

// TestFlagCommandLines covers the mode selection, the per-flag rules
// and the cross-flag checks, including every ignored-flag case that
// once ran silently.
func TestFlagCommandLines(t *testing.T) {
	for _, tc := range []struct {
		args []string
		mode mode   // for accepted lines
		bad  string // the flag a rejection must name ("" = accepted)
	}{
		{args: []string{"-exp", "fig7", "-policy", "LRU"}, bad: "-policy"},
		{args: []string{"-exp", "fig7", "-trace"}, bad: "-trace"},
		{args: []string{"-run", "-journal", "x.jsonl"}, bad: "-journal"},
		{args: []string{"-run", "-quick"}, bad: "-quick"},
		{args: []string{"-run", "-tenants", "8", "-workload", "bt.B"}, bad: "-workload"},
		{args: []string{"-worker", "http://h:1", "-scale", "0.5"}, bad: "-scale"},
		{args: []string{"-run", "-exp", "fig7"}, bad: "-exp"},
		{args: []string{"-compact-journal", "j", "-run"}, bad: "-run"},
		{args: []string{"-run", "-zipf-s", "1.2"}, bad: "-zipf-s"},
		{args: []string{"-exp", "tenants", "-churn", "10"}, bad: "-churn"},
		{args: []string{"-run", "-policy", "FIFO", "-p", "0.5"}, bad: "-p"},
		{args: []string{"-run", "-policy", "LRU", "-dynamic-p"}, bad: "-dynamic-p"},
		{args: []string{"-run", "-fault-seed", "3"}, bad: "-fault-seed"},
		{args: []string{"-exp", "fig7", "-serve-grace", "1s"}, bad: "-serve-grace"},
		{args: []string{"-run", "-trace-out", "t.json"}, bad: "-trace-out"},
		{args: []string{"-exp", "fig7", "-journal", "j", "-linger", "1s"}, bad: "-linger"},
		{args: []string{"-exp", "fig7", "-lease-ttl", "1s"}, bad: "-lease-ttl"},
		{args: []string{"-exp", "fig7", "-max-attempts", "2"}, bad: "-max-attempts"},
		{args: []string{"-exp", "fig7", "-csv", "-plot"}, bad: "-plot"},
		{args: []string{"-exp", "fig7", "-journal", "j", "-shard", "0/2", "-csv"}, bad: "-csv"},
		{args: []string{"-exp", "fig7", "-shard", "0/2"}, bad: "-shard"},
		{args: []string{"-exp", "fig7", "-shard", "2/2", "-journal", "j"}, bad: "-shard"},
		{args: []string{"-exp", "fig7", "-coordinate", "127.0.0.1:0"}, bad: "-coordinate"},
		{args: []string{"-exp", "fig7", "-journal", "j", "-shard", "0/2", "-coordinate", "127.0.0.1:0"}, bad: "-coordinate"},
		{args: []string{"-run", "extra"}, bad: "extra"},
		{args: []string{"-run", "-tenants", "8", "-zipf-s", "1.2", "-churn", "5", "-cores", "4"}, mode: modeRun},
		{args: []string{"-run", "-policy", "cmcp", "-p", "0.5", "-dynamic-p"}, mode: modeRun},
		{args: []string{"-run", "-trace", "-trace-out", "t.jsonl", "-sample-every", "100"}, mode: modeRun},
		{args: []string{"-run", "-sample-every", "100", "-trace-out", "t.json"}, mode: modeRun},
		{args: []string{"-run", "-fault-rate", "1e-4", "-fault-seed", "9", "-serve", "127.0.0.1:0", "-serve-grace", "1s"}, mode: modeRun},
		{args: []string{"-exp", "tenants", "-tenants", "8", "-zipf-s", "1.2", "-churn", "5"}, mode: modeExp},
		{args: []string{"-exp", "fig7", "-csv", "-journal", "j", "-journal-import", "a,b", "-schedule-from", "j"}, mode: modeExp},
		{args: []string{"-exp", "fig7", "-plot", "-repeats", "3", "-parallel", "2", "-hist", "-sockets", "2"}, mode: modeExp},
		{args: []string{"-exp", "fig7", "-journal", "j", "-coordinate", "127.0.0.1:0", "-lease-ttl", "2s", "-max-attempts", "4", "-linger", "0s"}, mode: modeExp},
		{args: []string{"-worker", "http://h:1", "-worker-name", "w"}, mode: modeWorker},
		{args: []string{"-compact-journal", "j", "-compact-out", "k"}, mode: modeCompact},
	} {
		_, m, err := parse(tc.args...)
		switch {
		case tc.bad == "" && err != nil:
			t.Errorf("%q rejected: %v", tc.args, err)
		case tc.bad == "" && m != tc.mode:
			t.Errorf("%q: mode %s, want %s", tc.args, m, tc.mode)
		case tc.bad != "" && err == nil:
			t.Errorf("%q accepted, want an error naming %s", tc.args, tc.bad)
		case tc.bad != "" && !strings.Contains(err.Error(), tc.bad):
			t.Errorf("%q: error %q does not name %s", tc.args, err, tc.bad)
		}
	}
	if _, _, err := parse(); err != errNoMode {
		t.Errorf("empty command line: err = %v, want errNoMode", err)
	}
}

// ciCommandLines extracts every cmcpsim invocation from the CI
// workflow: continuation lines joined, the words after ./cmcpsim up to
// the first shell operator.
func ciCommandLines(t *testing.T) [][]string {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	var cont string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasSuffix(line, "\\") {
			cont += strings.TrimSuffix(line, "\\") + " "
			continue
		}
		lines = append(lines, cont+line)
		cont = ""
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var cmds [][]string
	for _, line := range lines {
		words := strings.Fields(line)
		for i, w := range words {
			if w != "./cmcpsim" {
				continue
			}
			var args []string
			for _, a := range words[i+1:] {
				if strings.ContainsAny(a[:1], "<>|&;") || strings.HasPrefix(a, "2>") {
					break
				}
				args = append(args, a)
			}
			cmds = append(cmds, args)
			break
		}
	}
	return cmds
}

// TestCICommandLinesAccepted pins that every cmcpsim command line CI
// runs still parses and passes the consumed-flag check.
func TestCICommandLinesAccepted(t *testing.T) {
	cmds := ciCommandLines(t)
	if len(cmds) < 10 {
		t.Fatalf("found only %d cmcpsim command lines in ci.yml", len(cmds))
	}
	seen := make(map[mode]bool)
	for _, args := range cmds {
		_, m, err := parse(args...)
		if err != nil {
			t.Errorf("CI command line %q rejected: %v", args, err)
			continue
		}
		seen[m] = true
	}
	var modes []string
	for m := range seen {
		modes = append(modes, string(m))
	}
	sort.Strings(modes)
	if len(modes) != len(modeFlags) {
		t.Errorf("CI exercises modes %v, want all %d", modes, len(modeFlags))
	}
}
