package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fragment"
	"repro/pkg/tcq"
)

// setupTimes is where one set-up spent its time, layer by layer. The
// layer fields are the first node's; totalS is the wall time of the
// whole set-up, to the first correct answer.
type setupTimes struct {
	graphS, fragmentS, buildS float64
	saveS, openS, loadS       float64
	snapshotMB                float64
	globalSearches            int
	totalS                    float64
}

// scale turns wall-clock seconds into reference-machine seconds (see
// calib.go).
func (t *setupTimes) scale(f float64) {
	for _, s := range []*float64{&t.graphS, &t.fragmentS, &t.buildS, &t.saveS, &t.openS, &t.loadS, &t.totalS} {
		*s *= f
	}
}

func seconds(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e9 }

// buildDataset does what one serving process does before it can
// listen: generate the graph, fragment it, precompute the store, and —
// for a durable deployment — seed a store directory and recover the
// dataset from it (checkpoint mmap plus an empty journal).
func (w *workload) buildDataset(sc scale, dir string) (*tcq.Dataset, setupTimes, error) {
	var t setupTimes
	t0 := time.Now()
	g, sets, err := w.generate(sc)
	if err != nil {
		return nil, t, err
	}
	t1 := time.Now()
	fr, err := w.fragmentGraph(sc, g, sets)
	if err != nil {
		return nil, t, err
	}
	t2 := time.Now()
	st, err := tcq.BuildStore(fr, tcq.BuildOptions{})
	if err != nil {
		return nil, t, err
	}
	t3 := time.Now()
	t.graphS, t.fragmentS, t.buildS = seconds(t1.Sub(t0)), seconds(t2.Sub(t1)), seconds(t3.Sub(t2))
	ds, err := tcq.OpenDataset(st)
	if err != nil {
		return nil, t, err
	}
	t.globalSearches = ds.Snapshot().Preprocessing().DijkstraRuns
	if !w.durable {
		return ds, t, nil
	}
	t4 := time.Now()
	if err := tcq.InitStore(dir, ds.Snapshot()); err != nil {
		return nil, t, err
	}
	t5 := time.Now()
	ds, info, err := tcq.OpenStore(dir, tcq.PersistOptions{})
	if err != nil {
		return nil, t, err
	}
	t.saveS, t.openS, t.loadS = seconds(t5.Sub(t4)), seconds(time.Since(t5)), seconds(info.LoadDuration)
	if images, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*")); len(images) > 0 {
		if fi, err := os.Stat(images[0]); err == nil {
			t.snapshotMB = float64(fi.Size()) / (1 << 20)
		}
	}
	return ds, t, nil
}

// setUp builds the whole deployment and times it to the first correct
// answer. The nodes of a cluster build concurrently, as separate
// machines would.
func (w *workload) setUp(sc scale, dir string, first []op) (*deployment, setupTimes, error) {
	start := time.Now()
	datasets := make([]*tcq.Dataset, w.nodes)
	times := make([]setupTimes, w.nodes)
	errs := make([]error, w.nodes)
	var wg sync.WaitGroup
	for i := range datasets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			datasets[i], times[i], errs[i] = w.buildDataset(sc, dir)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, times[0], fmt.Errorf("set-up: %w", err)
		}
	}
	dep, err := boot(datasets, w.cacheCap(sc))
	if err != nil {
		return nil, times[0], fmt.Errorf("set-up: %w", err)
	}
	if ph := drive(dep.urls()[:1], first, 1, 0); ph.failed > 0 {
		dep.close()
		return nil, times[0], fmt.Errorf("set-up: the first answer of %s was wrong or failed", w.name)
	}
	times[0].totalS = seconds(time.Since(start))
	return dep, times[0], nil
}

// restart closes a durable deployment and brings it back from its store
// directory: checkpoint mmap, journal-tail replay, server boot, first
// correct answer. It returns the new deployment, the seconds from Close
// to that answer and the journal records replayed.
func (w *workload) restart(sc scale, dep *deployment, dir string, first []op) (*deployment, float64, int, error) {
	start := time.Now()
	if err := dep.close(); err != nil {
		return nil, 0, 0, fmt.Errorf("restart: %w", err)
	}
	ds, info, err := tcq.OpenStore(dir, tcq.PersistOptions{})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("restart: %w", err)
	}
	next, err := boot([]*tcq.Dataset{ds}, w.cacheCap(sc))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("restart: %w", err)
	}
	if ph := drive(next.urls()[:1], first, 1, 0); ph.failed > 0 {
		next.close()
		return nil, 0, 0, fmt.Errorf("restart: the first answer after recovery was wrong or failed")
	}
	return next, seconds(time.Since(start)), info.ReplayedRecords, nil
}

// fragChars are the paper's fragmentation characteristics that decide
// how much assembly and planning a query needs. fragment.Measure also
// computes fragment diameters, which on 4k-node road fragments costs
// more than the whole run; these three use the same definitions.
type fragChars struct {
	dsAvg   float64 // mean disconnection-set size in nodes
	sizeDev float64 // mean absolute deviation of fragment sizes, in edges
	cycles  int     // circuit rank of the fragmentation graph
}

func measureFragmentation(fr *fragment.Fragmentation) fragChars {
	var c fragChars
	sets := fr.DisconnectionSets()
	for _, ds := range sets {
		c.dsAvg += float64(len(ds))
	}
	if len(sets) > 0 {
		c.dsAvg /= float64(len(sets))
	}
	var meanSize float64
	for _, f := range fr.Fragments() {
		meanSize += float64(f.Size())
	}
	meanSize /= float64(fr.NumFragments())
	for _, f := range fr.Fragments() {
		c.sizeDev += math.Abs(float64(f.Size())-meanSize) / float64(fr.NumFragments())
	}
	c.cycles = fr.FragmentationGraph().CycleCount()
	return c
}
