// Distributed runs the same experiment sweep twice — once locally,
// once through the crash-tolerant coordinator with a small worker
// fleet — and proves the headline invariant: a sweep executed by
// leased HTTP workers merges bit-identically to the serial run.
//
// The coordinator owns the grid and the journal; workers are
// stateless lease/heartbeat/result clients, so killing one mid-run
// costs at most a lease TTL before the key is requeued (with capped
// exponential backoff) or stolen by an idle peer. Here the fleet is
// three in-process goroutines for a self-contained demo, but each
// worker speaks plain HTTP — `cmcpsim -worker http://host:port` runs
// the identical client across machines.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"cmcp"
)

func main() {
	dir, err := os.MkdirTemp("", "cmcp-distributed")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	refJournal := filepath.Join(dir, "ref.jsonl")
	coordJournal := filepath.Join(dir, "coord.jsonl")

	// Reference: the ordinary in-process sweep, journaled.
	opt := cmcp.ExperimentOptions{Quick: true, Scale: 0.02, Seed: 42}
	refBackend := cmcp.NewFileSweepBackend(refJournal)
	opt.Backend = refBackend
	if _, err := cmcp.RunExperiment("fig9", opt); err != nil {
		log.Fatal(err)
	}
	if err := refBackend.Close(); err != nil {
		log.Fatal(err)
	}

	// Coordinated: same grid, but every run is leased over HTTP.
	coordinator := cmcp.NewCoordinator(cmcp.CoordinatorOptions{})
	if err := coordinator.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	base := "http://" + coordinator.Addr()
	fmt.Printf("coordinator serving on %s\n", base)

	var fleet sync.WaitGroup
	for i := 0; i < 3; i++ {
		fleet.Add(1)
		go func(i int) {
			defer fleet.Done()
			w := &cmcp.SweepWorker{Base: base, Name: fmt.Sprintf("worker-%d", i)}
			if err := w.Run(); err != nil {
				log.Printf("worker-%d: %v", i, err)
			}
		}(i)
	}

	coordBackend := cmcp.NewFileSweepBackend(coordJournal)
	opt.Backend = coordBackend
	opt.Runner = coordinator
	report, err := cmcp.RunExperiment("fig9", opt)
	if err != nil {
		log.Fatal(err)
	}
	if err := coordBackend.Close(); err != nil {
		log.Fatal(err)
	}
	coordinator.Finish() // lets idle workers exit with "sweep done"
	fleet.Wait()
	coordinator.Close()

	s := coordinator.Stats()
	fmt.Printf("fleet of 3 finished: %d keys done, %d leases granted, %d heartbeats, %d expired, %d stolen, %d poisoned\n",
		s.KeysDone, s.LeasesGranted, s.Heartbeats, s.LeasesExpired, s.LeasesStolen, s.KeysPoisoned)

	// The invariant: compact both journals (canonical last-per-key,
	// sorted, re-marshaled) and compare bytes.
	refOut, coordOut := refJournal+".c", coordJournal+".c"
	if _, err := cmcp.CompactSweepJournal(refJournal, refOut); err != nil {
		log.Fatal(err)
	}
	if _, err := cmcp.CompactSweepJournal(coordJournal, coordOut); err != nil {
		log.Fatal(err)
	}
	a, err := os.ReadFile(refOut)
	if err != nil {
		log.Fatal(err)
	}
	b, err := os.ReadFile(coordOut)
	if err != nil {
		log.Fatal(err)
	}
	if bytes.Equal(a, b) {
		fmt.Println("compacted journals are BIT-IDENTICAL: distributed == serial")
	} else {
		fmt.Println("journals DIVERGED — determinism bug!")
		os.Exit(1)
	}

	fmt.Println()
	fmt.Print(report)
}
