// Command benchmarks is the repository's benchmark: it builds one of six
// deployments of the real serving stack, drives it closed-loop over
// loopback HTTP with a seed-generated op list, checks every answer
// against a Dijkstra on the unfragmented graph, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// run (--trace 1) as one JSON object on the last line of standard
// output. BENCHMARK.json at the repository root declares the workloads,
// metrics and bounds; README.md in this directory explains them.
//
//	bash benchmarks/run.sh --workload grid-point --seed 1 --seconds 10 --trace 0
//	bash benchmarks/run.sh -compare benchmarks/out/a benchmarks/out/b
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one metric, its unit and which direction is better.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists what a user of the system sees; BENCHMARK.json gives
// each a regression bound. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"pairs_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p95_ms", "ms", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"live_heap_mb", "MiB", "lower"},
}

// perLayer lists the metrics of single layers, named layer.metric after
// the module they measure. A metric that does not exist on a workload
// (store.* without a store directory, cluster.* on one node) reads 0.
var perLayer = []metricDef{
	{"gen.graph_s", "s", "lower"},
	{"fragment.fragment_s", "s", "lower"},
	{"fragment.ds_avg", "count", "lower"},
	{"fragment.size_dev", "count", "lower"},
	{"fragment.cycles", "count", "lower"},
	{"dsa.build_s", "s", "lower"},
	{"dsa.build_global_searches", "count", "lower"},
	{"store.save_s", "s", "lower"},
	{"store.snapshot_mb", "MiB", "lower"},
	{"store.load_s", "s", "lower"},
	{"store.open_s", "s", "lower"},
	{"store.restart_s", "s", "lower"},
	{"store.replayed_records", "count", "lower"},
	{"store.journal_append_ms", "ms", "lower"},
	{"server.net_us", "us", "lower"},
	{"server.codec_us", "us", "lower"},
	{"server.resp_bytes", "bytes", "lower"},
	{"tcq.facade_us", "us", "lower"},
	{"tcq.plan_us", "us", "lower"},
	{"server.exec_us", "us", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.cache_evictions", "count", "lower"},
	{"server.cache_invalidated", "count", "lower"},
	{"server.cache_retained", "count", "higher"},
	{"server.site_busy_max_share", "ratio", "lower"},
	{"server.site_busy_imbalance", "ratio", "lower"},
	{"dsa.plan_us", "us", "lower"},
	{"dsa.chains", "count", "lower"},
	{"dsa.legs_per_pair", "count", "lower"},
	{"dsa.leg_exec_us", "us", "lower"},
	{"dsa.leg_rows", "count", "lower"},
	{"tc.dense_us", "us", "lower"},
	{"tc.bitset_us", "us", "lower"},
	{"tc.iterations", "count", "lower"},
	{"dsa.filter_us", "us", "lower"},
	{"dsa.filter_rows_out", "count", "lower"},
	{"dsa.assemble_us", "us", "lower"},
	{"dsa.assembly_joins", "count", "lower"},
	{"dsa.max_operand", "count", "lower"},
	{"dsa.tuples_shipped", "count", "lower"},
	{"dsa.apply_ms", "ms", "lower"},
	{"dsa.sites_rebuilt", "count", "lower"},
	{"dsa.sites_shared", "count", "higher"},
	{"cluster.leg_rpc_us", "us", "lower"},
	{"cluster.leg_resp_bytes", "bytes", "lower"},
	{"cluster.leg_codec_us", "us", "lower"},
	{"cluster.remote_legs_per_pair", "count", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.fallbacks", "count", "lower"},
	{"runtime.allocs_per_pair", "count", "lower"},
	{"runtime.bytes_per_pair", "bytes", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.peak_rss_mb", "MiB", "lower"},
	{"client.p99_ms", "ms", "lower"},
	{"client.max_ms", "ms", "lower"},
	{"client.c1_p50_ms", "ms", "lower"},
	{"client.failed_share", "ratio", "lower"},
	{"harness.trace_overhead_pct", "%", "lower"},
	{"harness.residual_pct", "%", "lower"},
	{"harness.oracle_s", "s", "lower"},
	{"harness.machine_speed", "1/s", "higher"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the object the last line of standard output carries.
type verdict struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result is the file a run leaves in the output directory: the verdict
// plus what is needed to read it — the environment, the op counts, the
// wall time of each phase and the sample count behind each percentile.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Scale    string  `json:"scale"`
	Env      struct {
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Commit     string `json:"commit"`
		Clients    int    `json:"clients"`
	} `json:"env"`
	Ops     map[string]int     `json:"ops"`
	PhaseS  map[string]float64 `json:"phase_s"`
	Samples map[string]int     `json:"samples"`
	// MachineSpeed lists every calibration of the run, in loops per
	// second; WallClock repeats the timed phase's metrics as the wall
	// clock read them, before scaling to the reference machine.
	MachineSpeed []float64          `json:"machine_speed"`
	WallClock    map[string]float64 `json:"wall_clock"`
	verdict
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	out      string
	commit   string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see -list)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the op lists")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, recording off; 1: per-layer metrics of a traced run")
	flag.StringVar(&cfg.scale, "scale", "full", "full, or tiny for the smoke test")
	flag.StringVar(&cfg.out, "out", "benchmarks/out", "directory for result files, traces and store directories")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit to record in the result file")
	compare := flag.Bool("compare", false, "compare two result directories: [-manifest BENCHMARK.json] -compare A B")
	manifest := flag.String("manifest", "BENCHMARK.json", "benchmark manifest, for the comparator's bounds")
	list := flag.Bool("list", false, "list the workloads")
	flag.Parse()
	switch {
	case *list:
		for _, w := range workloads {
			fmt.Println(w.name)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result directories"))
		}
		clean, err := compareDirs(os.Stdout, *manifest, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !clean {
			os.Exit(1)
		}
	default:
		res, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res.verdict)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmarks:", err)
	os.Exit(2)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// heapAfterGC is the live heap in MiB, without the harness's own
// calibration memory. Two collections: the first leaves what sync.Pool
// and finalizers still hold from the set-ups before the last.
func heapAfterGC() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc-uint64(8*len(calibMemory))) / (1 << 20)
}

// run performs one invocation: prepare the inputs, set the deployment
// up, warm it, measure, and write the result file.
func run(cfg config) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	sc, ok := scales[cfg.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q (want full or tiny)", cfg.scale)
	}
	if cfg.seconds <= 0 || (cfg.trace != 0 && cfg.trace != 1) {
		return nil, fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	res := &result{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Scale: sc.name,
		Ops: map[string]int{}, PhaseS: map[string]float64{}, Samples: map[string]int{}, WallClock: map[string]float64{}}
	res.Env.NProc, res.Env.GOMAXPROCS, res.Env.Go = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	res.Env.Commit, res.Env.Clients = cfg.commit, clients
	res.Metrics = map[string]value{}

	// Inputs, outside every timer: the base graph and fragmentation the
	// op lists and the oracle are made from. Set-up generates its own.
	prep := time.Now()
	g, sets, err := w.generate(sc)
	if err != nil {
		return nil, err
	}
	fr, err := w.fragmentGraph(sc, g, sets)
	if err != nil {
		return nil, err
	}
	lists := w.makeOps(sc, cfg.seed, fr)
	res.Ops["oracle_pairs"] = w.fillOracle(g, &lists)
	res.Ops["warm"], res.Ops["timed_list"], res.Ops["probe"] = len(lists.warm), len(lists.timed), len(lists.probe)
	chars := measureFragmentation(fr)
	res.PhaseS["oracle"] = seconds(time.Since(prep))
	// The first read's correct answer is what ends a set-up or a restart.
	first := readOps(lists.timed, 1)
	if len(first) == 0 {
		return nil, fmt.Errorf("%s: the op list has no read op", w.name)
	}

	// A durable deployment keeps its store directory under the output
	// directory, inside the checkout, and removes it when the run ends.
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.out, w.name+"-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	// Set-ups repeat until there are sc.setups of them and they have run
	// for sc.setupFloor together, so that a cheap set-up's median rests on
	// more samples than a dear one's; a traced run needs just the one.
	maxSetups, floor := sc.maxSetups, sc.setupFloor
	if cfg.trace == 1 {
		maxSetups, floor = 1, 0
	}
	// The deployment changes hands on every set-up and restart; close
	// whichever is current when the run ends.
	var dep *deployment
	defer func() {
		if dep != nil {
			dep.close()
		}
	}()
	pc := newPacer(sc.calibLoops)
	var setup setupTimes
	var setupS, setupWall []float64
	dir := ""
	for k := 0; k < maxSetups && (k < sc.setups || sum(setupWall) < seconds(floor)); k++ {
		if dep != nil {
			if err := dep.close(); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(scratch, fmt.Sprintf("setup%d", k))
		if dep, setup, err = w.setUp(sc, dir, first); err != nil {
			return nil, err
		}
		setupWall = append(setupWall, setup.totalS)
		setup.scale(pc.lap())
		setupS = append(setupS, setup.totalS)
	}
	res.PhaseS["setup_wall"] = sum(setupWall)

	// The resident size is taken warm: the store, the kernels the sites
	// build lazily on first use, and the leg cache the warm-up filled.
	warm := drive(dep.urls(), lists.warm, clients, 0)
	res.PhaseS["warm_wall"] = seconds(warm.elapsed)
	liveHeap := heapAfterGC()
	total := warm
	logf("%s seed %d: set-up %.2fs x%d, warm-up %d ops in %.2fs", w.name, cfg.seed, median(setupS), len(setupS), warm.attempted, seconds(warm.elapsed))
	pc.lap() // the warm-up is not measured; the next interval starts here

	duration := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace == 0 {
		timed, blocks, err := timedPhase(pc, sc, dep.urls(), lists.timed, duration)
		if err != nil {
			return nil, err
		}
		total.merge(timed.wall)
		writes := timed.ref.writeMS
		if w.writeEvery == 0 {
			// Read-only mixes get their write latency from a sequential
			// probe after the timed phase, so an update-path regression
			// shows on every deployment shape.
			probe, _ := segments(pc, dep.urls(), lists.probe, 0, 1, sc.probeFloor, sc.probeSegments)
			total.merge(probe.wall)
			res.PhaseS["probe_wall"] = seconds(probe.wall.elapsed)
			writes = probe.ref.writeMS
			res.WallClock["write_p50_ms"] = median(probe.wall.writeMS)
		} else {
			res.WallClock["write_p50_ms"] = median(timed.wall.writeMS)
		}
		res.PhaseS["timed_wall"] = seconds(timed.wall.elapsed)
		res.Ops["timed_sent"] = timed.wall.attempted
		res.Samples["p50_ms"], res.Samples["p95_ms"], res.Samples["write_p50_ms"] = len(timed.wall.readMS), len(timed.wall.readMS), len(writes)
		res.Samples["setup_s"], res.Samples["blocks"] = len(setupS), len(blocks)
		res.WallClock["pairs_per_s"] = float64(timed.wall.pairsOK) / seconds(timed.wall.elapsed)
		res.WallClock["p50_ms"] = median(timed.wall.readMS)
		res.WallClock["p95_ms"] = percentile(timed.wall.readMS, 0.95)
		res.WallClock["setup_s"] = median(setupWall)
		res.set(endToEnd, map[string]float64{
			"pairs_per_s":  medianOf(blocks, func(b block) float64 { return b.pairsPerS }),
			"p50_ms":       medianOf(blocks, func(b block) float64 { return b.p50MS }),
			"p95_ms":       medianOf(blocks, func(b block) float64 { return b.p95MS }),
			"write_p50_ms": median(writes),
			"setup_s":      median(setupS),
			"live_heap_mb": liveHeap,
		})
	} else {
		tr := &tracedRun{cfg: cfg, w: w, sc: sc, lists: &lists, fr: fr, first: first, dir: dir, res: res, total: &total, pc: pc, dep: dep}
		layers, err := tr.measure(duration)
		dep = tr.dep // a restart replaces the deployment
		if err != nil {
			return nil, err
		}
		layers["gen.graph_s"], layers["fragment.fragment_s"], layers["dsa.build_s"] = setup.graphS, setup.fragmentS, setup.buildS
		layers["dsa.build_global_searches"] = float64(setup.globalSearches)
		layers["store.save_s"], layers["store.open_s"], layers["store.load_s"] = setup.saveS, setup.openS, setup.loadS
		layers["store.snapshot_mb"] = setup.snapshotMB
		layers["fragment.ds_avg"], layers["fragment.size_dev"], layers["fragment.cycles"] = chars.dsAvg, chars.sizeDev, float64(chars.cycles)
		layers["harness.oracle_s"] = res.PhaseS["oracle"]
		layers["harness.machine_speed"] = median(pc.speeds)
		res.set(perLayer, layers)
	}
	res.MachineSpeed = pc.speeds
	res.Attempted, res.Failed = total.attempted, total.failed
	res.Correct = total.failed == 0
	return res, res.write(cfg.out)
}

// measured is one measured interval twice over: as the wall clock read
// it, and in reference-machine time (see calib.go).
type measured struct{ wall, ref phase }

// block is what one slice of the timed phase observed, in reference
// time. The end-to-end throughput and latencies are medians over the
// blocks: a stall the calibration does not see (a slow fsync, a burst
// shorter than a segment) then spoils the blocks it falls in, not the run.
type block struct{ pairsPerS, p50MS, p95MS float64 }

func medianOf(blocks []block, field func(block) float64) float64 {
	vals := make([]float64, len(blocks))
	for i, b := range blocks {
		vals[i] = field(b)
	}
	return median(vals)
}

// segments drives ops closed-loop for d in n segments that continue
// through the list where the last one stopped, each between two
// calibrations and scaled by the machine speed that held around it. The
// machine changes speed within a second, so the segments are short.
func segments(pc *pacer, urls []string, ops []op, next, conc int, d time.Duration, n int) (m measured, end int) {
	for k := 0; k < n; k++ {
		rotated := append(append([]op(nil), ops[next:]...), ops[:next]...)
		seg := drive(urls, rotated, conc, d/time.Duration(n))
		next = (next + seg.attempted) % len(ops)
		m.wall.merge(seg)
		seg.scale(pc.lap())
		m.ref.merge(seg)
	}
	return m, next
}

// timedPhase drives the timed list for d in sc.blocks blocks of
// sc.segments calibrated segments each.
func timedPhase(pc *pacer, sc scale, urls []string, ops []op, d time.Duration) (measured, []block, error) {
	var m measured
	var blocks []block
	next := 0
	for k := 0; k < sc.blocks; k++ {
		var b measured
		b, next = segments(pc, urls, ops, next, clients, d/time.Duration(sc.blocks), sc.segments)
		m.wall.merge(b.wall)
		m.ref.merge(b.ref)
		if len(b.ref.readMS) > 0 {
			blocks = append(blocks, block{
				pairsPerS: float64(b.ref.pairsOK) / seconds(b.ref.elapsed),
				p50MS:     median(b.ref.readMS),
				p95MS:     percentile(b.ref.readMS, 0.95),
			})
		}
	}
	if len(blocks) == 0 {
		return m, nil, fmt.Errorf("the timed phase completed no read in %v", d)
	}
	return m, blocks, nil
}

// set fills the verdict's metrics from vals, one entry per definition.
func (r *result) set(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		r.Metrics[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
}

func (r *result) write(dir string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, r.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
