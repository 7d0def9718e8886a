package coord

import (
	"bytes"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"cmcp/internal/machine"
	"cmcp/internal/sweep"
)

// The chaos tests pin the package invariant end to end: a sweep that
// survives worker kill -9 and a coordinator restart merges and
// journals bit-identically to an uninterrupted serial sweep.

// slowGrid returns configs big enough (~hundreds of ms each) that a
// SIGKILL reliably lands mid-run.
func slowGrid(n int) []machine.Config {
	cfgs := make([]machine.Config, n)
	for i := range cfgs {
		c := testCfg(uint64(i + 1))
		c.Workload.TotalTouches = 4_000_000
		cfgs[i] = c
	}
	return cfgs
}

func assertFilesEqual(t *testing.T, a, b string) {
	t.Helper()
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Errorf("journals differ after compaction: %s (%d bytes) vs %s (%d bytes)",
			a, len(ab), b, len(bb))
	}
}

const helperBaseEnv = "CMCP_COORD_HELPER_BASE"

// TestHelperWorkerProcess is not a test: it is the victim subprocess
// for TestWorkerKill9MidLease, re-executing this test binary as a real
// OS process so SIGKILL is a genuine kill -9 (no deferred cleanup, no
// goodbye to the coordinator).
func TestHelperWorkerProcess(t *testing.T) {
	base := os.Getenv(helperBaseEnv)
	if base == "" {
		t.Skip("helper process for TestWorkerKill9MidLease; skipped in normal runs")
	}
	w := &Worker{
		Base:       base,
		Name:       "victim",
		RetryPause: 20 * time.Millisecond,
		Patience:   500,
	}
	w.Run()
}

// TestWorkerKill9MidLease: a worker process holding a lease is killed
// with SIGKILL mid-simulation. Its lease expires, the key requeues, a
// rescuer worker finishes the sweep, and the merged journal compacts
// to the same bytes as an uninterrupted serial sweep.
func TestWorkerKill9MidLease(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test: spawns a subprocess and runs ~1s of simulation")
	}
	cfgs := slowGrid(3)
	dir := t.TempDir()
	refJ := dir + "/ref.jsonl"
	chaosJ := dir + "/chaos.jsonl"

	ref, err := runFile(cfgs, refJ, sweep.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	c := New(Options{
		LeaseTTL:    300 * time.Millisecond,
		BackoffBase: 10 * time.Millisecond,
		MaxAttempts: 10,
	})
	if err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The victim: this test binary re-executed as a worker.
	victim := exec.Command(os.Args[0], "-test.run=^TestHelperWorkerProcess$")
	victim.Env = append(os.Environ(), helperBaseEnv+"=http://"+c.Addr())
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}

	outCh := make(chan batchOut, 1)
	go func() {
		out, err := runFile(cfgs, chaosJ, sweep.Options{Runner: c})
		if out == nil {
			outCh <- batchOut{nil, err}
			return
		}
		outCh <- batchOut{out.Results, err}
	}()

	// Wait until the victim holds a lease, then kill -9.
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().LeasesGranted == 0 {
		if time.Now().After(deadline) {
			victim.Process.Kill()
			victim.Wait()
			t.Fatal("victim never leased anything")
		}
		time.Sleep(time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()

	// The rescuer finishes what the victim abandoned.
	rescuer := &Worker{
		Base:       "http://" + c.Addr(),
		Name:       "rescuer",
		RetryPause: 10 * time.Millisecond,
		Patience:   500,
	}
	rescuerDone := make(chan error, 1)
	go func() { rescuerDone <- rescuer.Run() }()

	var out batchOut
	select {
	case out = <-outCh:
	case <-time.After(60 * time.Second):
		t.Fatal("sweep did not recover from the kill within 60s")
	}
	if out.err != nil {
		t.Fatalf("recovered sweep errored: %v", out.err)
	}
	c.Finish()
	if err := <-rescuerDone; err != nil {
		t.Fatalf("rescuer: %v", err)
	}

	s := c.Stats()
	if s.LeasesExpired == 0 && s.LeasesStolen == 0 {
		t.Errorf("kill -9 left no trace (no lease expired or stolen): %+v", s)
	}
	if s.KeysDone != uint64(len(cfgs)) {
		t.Errorf("KeysDone = %d, want %d", s.KeysDone, len(cfgs))
	}
	if !reflect.DeepEqual(out.res, ref.Results) {
		t.Error("recovered results differ from serial reference")
	}

	// The invariant: both journals compact to identical bytes.
	if _, err := sweep.CompactJournal(refJ, refJ+".c"); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.CompactJournal(chaosJ, chaosJ+".c"); err != nil {
		t.Fatal(err)
	}
	assertFilesEqual(t, refJ+".c", chaosJ+".c")
}

// TestCoordinatorRestartMidSweep: the coordinator is torn down with a
// batch in flight and a worker mid-run, then a new coordinator on the
// same address resumes the sweep from the journal. The surviving
// worker rides out the outage, its in-flight result is adopted, and
// the merged journal matches the serial reference bit for bit.
func TestCoordinatorRestartMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test: runs ~1s of simulation through a restart")
	}
	cfgs := slowGrid(4)
	dir := t.TempDir()
	refJ := dir + "/ref.jsonl"
	chaosJ := dir + "/chaos.jsonl"

	ref, err := runFile(cfgs, refJ, sweep.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	opt := Options{
		LeaseTTL:    time.Second,
		BackoffBase: 10 * time.Millisecond,
		MaxAttempts: 10,
	}
	c1 := New(opt)
	if err := c1.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := c1.Addr()

	// One worker that outlives both coordinators.
	worker := &Worker{
		Base:       "http://" + addr,
		Name:       "survivor",
		RetryPause: 10 * time.Millisecond,
		Patience:   1000,
	}
	workerDone := make(chan error, 1)
	go func() { workerDone <- worker.Run() }()

	out1Ch := make(chan error, 1)
	go func() {
		_, err := runFile(cfgs, chaosJ, sweep.Options{Runner: c1})
		out1Ch <- err
	}()

	// Let at least one run complete and journal, then pull the plug
	// while the worker is mid-run on the next one.
	deadline := time.Now().Add(30 * time.Second)
	for c1.Stats().KeysDone == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no key completed before the restart")
		}
		time.Sleep(time.Millisecond)
	}
	c1.Close()
	err1 := <-out1Ch
	if err1 == nil || !strings.Contains(err1.Error(), "aborted") {
		t.Fatalf("interrupted sweep error = %v", err1)
	}

	// Restart on the same address; the worker's retry loop finds it.
	c2 := New(opt)
	for i := 0; ; i++ {
		if err = c2.Start(addr); err == nil {
			break
		}
		if i >= 100 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer c2.Close()

	out2, err := runFile(cfgs, chaosJ, sweep.Options{Runner: c2})
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	c2.Finish()
	if err := <-workerDone; err != nil {
		t.Fatalf("worker did not survive the restart: %v", err)
	}

	if out2.Loaded == 0 {
		t.Error("restarted sweep re-executed everything (journal resume broken)")
	}
	if !reflect.DeepEqual(out2.Results, ref.Results) {
		t.Error("post-restart results differ from serial reference")
	}

	if _, err := sweep.CompactJournal(refJ, refJ+".c"); err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.CompactJournal(chaosJ, chaosJ+".c"); err != nil {
		t.Fatal(err)
	}
	assertFilesEqual(t, refJ+".c", chaosJ+".c")
}
