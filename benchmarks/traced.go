package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/fragment"
	"repro/internal/relation"
	"repro/pkg/tcq"
)

// tracedRun is the --trace 1 half of a run: a short closed-loop phase
// for the counters that only mean something under concurrency, then
// the onion passes at concurrency 1, then the probes of single calls.
type tracedRun struct {
	cfg   config
	w     *workload
	sc    scale
	lists *opLists
	fr    *fragment.Fragmentation
	first []op
	dir   string
	res   *result
	total *phase
	pc    *pacer
	// dep is the deployment under test; a restart replaces it, and nil
	// means a failed restart has already closed it.
	dep *deployment
}

// Shares of --seconds: the concurrent phase gets a third, the first
// onion pass an eighth (the other passes replay what it managed).
const (
	countersShare = 3
	onionShare    = 8
)

// traceFloor is the least number of ops an onion pass replays.
const traceFloor = 16

// peakRSSMB reads the process's high-water resident set from /proc; 0
// where there is no such file.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// readOps returns the first read ops of a list.
func readOps(ops []op, n int) []op {
	var out []op
	for i := range ops {
		if !ops[i].write && len(out) < n {
			out = append(out, ops[i])
		}
	}
	return out
}

// measure runs the traced passes and returns the per-layer values it
// observed.
func (t *tracedRun) measure(duration time.Duration) (map[string]float64, error) {
	ctx := context.Background()
	m := map[string]float64{}
	d := t.dep

	// Counters under load: the timed phase again, shorter, with the
	// server's counters and the runtime's read before and after.
	before := d.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ph := drive(d.urls(), t.lists.timed, clients, duration/countersShare)
	runtime.ReadMemStats(&ms1)
	after := d.counters()
	ph.scale(t.pc.lap())
	t.total.merge(ph)
	t.res.PhaseS["counters"] = seconds(ph.elapsed)
	t.res.Samples["client.p99_ms"] = len(ph.readMS)
	lookups := (after.hits - before.hits) + (after.misses - before.misses)
	if lookups > 0 {
		m["server.cache_hit_ratio"] = (after.hits - before.hits) / lookups
	}
	m["server.cache_evictions"] = after.evictions - before.evictions
	m["server.cache_invalidated"] = after.invalidated - before.invalidated
	m["server.cache_retained"] = after.retained - before.retained
	var busy []float64
	for i := range after.siteBusyNS {
		busy = append(busy, after.siteBusyNS[i]-before.siteBusyNS[i])
	}
	if maxBusy := percentile(busy, 1); maxBusy > 0 {
		m["server.site_busy_max_share"] = maxBusy / float64(ph.elapsed.Nanoseconds())
		m["server.site_busy_imbalance"] = maxBusy / mean(busy)
	}
	if pairs := float64(ph.pairsOK); pairs > 0 {
		m["runtime.allocs_per_pair"] = float64(ms1.Mallocs-ms0.Mallocs) / pairs
		m["runtime.bytes_per_pair"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / pairs
		m["cluster.remote_legs_per_pair"] = (after.family("tc_leg_fanout_total") - before.family("tc_leg_fanout_total")) / pairs
	}
	m["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["cluster.retries"] = after.family("tc_cluster_leg_retries_total") - before.family("tc_cluster_leg_retries_total")
	m["cluster.fallbacks"] = after.family("tc_cluster_leg_fallback_total") - before.family("tc_cluster_leg_fallback_total")
	m["client.p99_ms"] = percentile(ph.readMS, 0.99)
	m["client.max_ms"] = percentile(ph.readMS, 1)
	if ph.attempted > 0 {
		m["client.failed_share"] = float64(ph.failed) / float64(ph.attempted)
	}

	// The onion. Where the cache is smaller than the working set, the
	// replayed ops must outnumber the cache's free slots, so that every
	// pass finds the source legs evicted again, and the walker's memo is
	// warmed with the warm-up's ops instead of the replayed ones.
	ops := readOps(t.lists.timed, t.sc.traceMax)
	var memoWarm []op
	minOps := traceFloor
	if t.w.evicting {
		memoWarm, minOps = t.lists.warm, t.w.cacheCap(t.sc)+8
	}
	on, err := runOnion(ctx, t.pc, d, ops, memoWarm, minOps, t.sc.traceMax, duration/onionShare)
	if err != nil {
		return nil, err
	}
	t.total.attempted += on.attempted
	t.total.failed += on.failed
	t.res.Ops["onion"] = len(on.l0OnUS)
	t.res.Samples["client.c1_p50_ms"] = len(on.l0OffUS)
	for _, layer := range onionLayers {
		m[layer+"_us"] = median(on.self[layer])
	}
	// Every op ran once with recording on and once with it off, in
	// different passes; evens and odds swap passes, so the drift between
	// the passes cancels in the median of the per-op differences.
	off, diffs := median(on.l0OffUS), make([]float64, len(on.l0OnUS))
	for i := range diffs {
		diffs[i] = on.l0OnUS[i] - on.l0OffUS[i]
	}
	m["client.c1_p50_ms"] = off / 1e3
	m["harness.trace_overhead_pct"] = 100 * median(diffs) / off
	m["harness.residual_pct"] = residualPct(median(on.l0OnUS), on.self)
	m["server.resp_bytes"] = median(on.respBytes)
	if n := float64(len(on.answers)); n > 0 {
		var chains, joins, maxOp, shipped float64
		for _, a := range on.answers {
			chains += float64(a.chains)
			joins += float64(a.joins)
			shipped += float64(a.shipped)
			if float64(a.maxOp) > maxOp {
				maxOp = float64(a.maxOp)
			}
		}
		m["dsa.chains"], m["dsa.assembly_joins"], m["dsa.tuples_shipped"], m["dsa.max_operand"] = chains/n, joins/n, shipped/n, maxOp
	}
	if tally := on.walk.tally; tally.legs > 0 {
		m["dsa.legs_per_pair"] = float64(tally.legs) / float64(tally.pairs)
		m["dsa.leg_rows"] = float64(tally.legRowsIn) / float64(tally.legs)
		m["dsa.filter_rows_out"] = float64(tally.legRowsOut) / float64(tally.legs)
	}

	// Single calls, timed alone: the kernels on source legs, and the
	// wire codec of the remote legs the walk fetched.
	var dense, bitset, iterations []float64
	rels := map[int]*relation.Relation{}
	for i := 0; i < len(ops) && i < t.sc.kernelProbes; i++ {
		du, bu, it, err := on.walk.kernelProbe(ctx, ops[i].pairs[0], rels)
		if err != nil {
			return nil, fmt.Errorf("kernel probe: %w", err)
		}
		dense, bitset, iterations = append(dense, du), append(bitset, bu), append(iterations, float64(it))
	}
	f := t.pc.lap()
	m["tc.dense_us"], m["tc.bitset_us"], m["tc.iterations"] = f*median(dense), f*median(bitset), mean(iterations)
	var codecUS, wireBytes []float64
	for _, leg := range on.walk.remote {
		us, size, err := legCodec(leg)
		if err != nil {
			return nil, fmt.Errorf("leg codec probe: %w", err)
		}
		codecUS, wireBytes = append(codecUS, us), append(wireBytes, size)
	}
	m["cluster.leg_codec_us"], m["cluster.leg_resp_bytes"] = t.pc.lap()*median(codecUS), median(wireBytes)

	if err := t.writeProbes(ctx, m); err != nil {
		return nil, err
	}
	m["runtime.peak_rss_mb"] = peakRSSMB()
	return m, t.writeTrace(on.spans)
}

// writeProbes measures the write path: the in-memory apply alone, on a
// scratch dataset over the same copy-on-write store; on a durable
// deployment also the journal append the program reports, and the
// restart from a checkpoint plus a fixed journal tail.
func (t *tracedRun) writeProbes(ctx context.Context, m map[string]float64) error {
	d := t.dep
	snap := d.nodes[0].ds.Snapshot()
	scratch, err := tcq.OpenDataset(snap.Store())
	if err != nil {
		return err
	}
	var applyMS, rebuilt, shared []float64
	for k := 0; k < t.sc.probeWrites; k++ {
		f, from, to := writeEdge(t.fr, k)
		var b tcq.Batch
		b.Insert(f, from, to, writeWeight).Delete(f, from, to, writeWeight)
		res, err := scratch.Apply(ctx, &b)
		if err != nil {
			return fmt.Errorf("apply probe: %w", err)
		}
		applyMS = append(applyMS, float64(res.Elapsed.Nanoseconds())/1e6)
		rebuilt, shared = append(rebuilt, float64(len(res.Stats.SitesRebuilt))), append(shared, float64(res.Stats.SitesShared))
	}
	m["dsa.apply_ms"], m["dsa.sites_rebuilt"], m["dsa.sites_shared"] = t.pc.lap()*median(applyMS), mean(rebuilt), mean(shared)
	if !t.w.durable {
		return nil
	}

	ds := d.nodes[0].ds
	ps0 := ds.PersistStats()
	probe := drive(d.urls(), t.lists.probe, 1, 0)
	t.total.merge(probe)
	ps1 := ds.PersistStats()
	if n := float64(ps1.JournalRecords - ps0.JournalRecords); n > 0 {
		m["store.journal_append_ms"] = t.pc.lap() * 1e3 * (ps1.JournalAppendSeconds - ps0.JournalAppendSeconds) / n
	}

	// A checkpoint empties the journal; journalTail writes after it
	// leave every restart the same tail to replay.
	if err := ds.Checkpoint(); err != nil {
		return err
	}
	var tail []op
	for len(tail) < t.sc.journalTail {
		tail = append(tail, t.lists.probe[len(tail)%len(t.lists.probe)])
	}
	t.total.merge(drive(d.urls(), tail, 1, 0))
	t.pc.lap()
	var restartS []float64
	replayed := 0
	for k := 0; k < t.sc.restarts; k++ {
		next, secs, n, err := t.w.restart(t.sc, t.dep, t.dir, t.first)
		if err != nil {
			t.dep = nil
			return err
		}
		t.dep, replayed = next, n
		restartS = append(restartS, secs*t.pc.lap())
	}
	t.res.Samples["store.restart_s"] = len(restartS)
	m["store.restart_s"], m["store.replayed_records"] = median(restartS), float64(replayed)
	return nil
}

// writeTrace writes the spans of the traced passes next to the result.
func (t *tracedRun) writeTrace(spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{t.w.name, t.cfg.seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(t.cfg.out, "trace-"+t.w.name+".json"), data, 0o644)
}
