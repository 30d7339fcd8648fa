// Command tcbench regenerates every table and measured claim of the
// ICDE'93 paper (-h lists the experiments; package internal/bench
// documents each).
//
// Usage:
//
//	tcbench                      # everything
//	tcbench -table 2             # one table
//	tcbench -experiment speedup  # one performance experiment
//	tcbench -trials 20 -seed 7   # bigger batches
//	tcbench -experiment cost -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
)

func main() {
	var (
		table      = flag.String("table", "", "table to reproduce: 1, 2, 3 (empty = all)")
		experiment = flag.String("experiment", "", "experiment: speedup, iterations, fig8, phe, impact, amortize, kconn, ablation, engines, cost, serving, updates, cluster, coldstart (empty = all)")
		jsonPath   = flag.String("json", "", "write the experiment result as JSON to this file (updates, cluster and coldstart experiments)")
		edges      = flag.Int("edges", 1_200_000, "directed-edge target for the coldstart experiment")
		trials     = flag.Int("trials", 10, "random graphs per table")
		queries    = flag.Int("queries", 20, "queries per performance point")
		sources    = flag.Int("sources", 2, "entry-set size for the engines and cost experiments")
		seed       = flag.Int64("seed", 42, "base random seed")
		tablesOnly = flag.Bool("tables-only", false, "skip the performance experiments")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		cpuProfileFile = f
	}
	memProfilePath = *memProfile
	defer flushProfiles()

	runTables := *experiment == ""
	runExps := *table == "" && !*tablesOnly

	if runTables {
		type tableFn func(int, int64) (*bench.Table, error)
		all := []struct {
			id string
			fn tableFn
		}{
			{"1", bench.Table1},
			{"2", bench.Table2},
			{"3", bench.Table3},
		}
		for _, t := range all {
			if *table != "" && *table != t.id {
				continue
			}
			tbl, err := t.fn(*trials, *seed)
			if err != nil {
				fatal(err)
			}
			fmt.Println(tbl.Format())
		}
	}

	if runExps {
		run := func(name string, f func() (fmt.Stringer, error)) {
			if *experiment != "" && *experiment != name {
				return
			}
			out, err := f()
			if err != nil {
				fatal(fmt.Errorf("%s: %v", name, err))
			}
			fmt.Println(out)
		}
		run("speedup", func() (fmt.Stringer, error) {
			r, err := bench.Speedup(60, *queries, *seed)
			return formatter{r.Format}, err
		})
		run("iterations", func() (fmt.Stringer, error) {
			r, err := bench.Iterations(4, 25, *queries, *seed)
			return formatter{r.Format}, err
		})
		run("fig8", func() (fmt.Stringer, error) {
			r, err := bench.Fig8(*trials, *seed)
			return formatter{r.Format}, err
		})
		run("phe", func() (fmt.Stringer, error) {
			r, err := bench.PHE(*queries, *seed)
			return formatter{r.Format}, err
		})
		run("impact", func() (fmt.Stringer, error) {
			r, err := bench.Impact(5, *queries, *seed)
			return formatter{r.Format}, err
		})
		run("amortize", func() (fmt.Stringer, error) {
			r, err := bench.Amortize(*queries, *seed)
			return formatter{r.Format}, err
		})
		run("kconn", func() (fmt.Stringer, error) {
			r, err := bench.KConnCost(*seed)
			return formatter{r.Format}, err
		})
		run("engines", func() (fmt.Stringer, error) {
			r, err := bench.Engines(*sources, *seed)
			return formatter{r.Format}, err
		})
		run("cost", func() (fmt.Stringer, error) {
			r, err := bench.Cost(*sources, *seed)
			return formatter{r.Format}, err
		})
		run("serving", func() (fmt.Stringer, error) {
			r, err := bench.Serving(*queries, *seed)
			return formatter{r.Format}, err
		})
		run("updates", func() (fmt.Stringer, error) {
			r, err := bench.Updates(*queries, *seed)
			if err != nil {
				return nil, err
			}
			if *jsonPath != "" {
				if err := writeResultJSON(*jsonPath, r); err != nil {
					return nil, err
				}
			}
			return formatter{r.Format}, nil
		})
		run("cluster", func() (fmt.Stringer, error) {
			r, err := bench.Cluster(*queries, *seed)
			if err != nil {
				return nil, err
			}
			if *jsonPath != "" {
				if err := writeResultJSON(*jsonPath, r); err != nil {
					return nil, err
				}
			}
			return formatter{r.Format}, nil
		})
		// coldstart generates a million-edge road network and is only
		// run when asked for by name, never as part of "all".
		if *experiment == "coldstart" {
			r, err := bench.Coldstart(*edges, *queries, *seed)
			if err != nil {
				fatal(fmt.Errorf("coldstart: %v", err))
			}
			if *jsonPath != "" {
				if err := writeResultJSON(*jsonPath, r); err != nil {
					fatal(fmt.Errorf("coldstart: %v", err))
				}
			}
			fmt.Println(r.Format())
		}
		run("ablation", func() (fmt.Stringer, error) {
			var s string
			for _, f := range []func(int, int64) (*bench.Ablation, error){
				bench.AblationBEAThreshold,
				bench.AblationBEAMode,
				bench.AblationCenterVariant,
				bench.AblationCenterPool,
				bench.AblationLinearStartCount,
			} {
				a, err := f(*trials, *seed)
				if err != nil {
					return nil, err
				}
				s += a.Format() + "\n"
			}
			return formatter{func() string { return s }}, nil
		})
	}
}

// formatter adapts a Format method to fmt.Stringer.
type formatter struct{ f func() string }

func (f formatter) String() string { return f.f() }

// writeResultJSON persists an experiment result as a JSON artifact
// (the CI perf-trajectory files, e.g. BENCH_updates.json).
func writeResultJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// cpuProfileFile and memProfilePath hold the -cpuprofile/-memprofile
// state so flushProfiles can finalise them on both the normal and the
// fatal exit path — os.Exit skips defers, and an unflushed CPU profile
// is unreadable.
var (
	cpuProfileFile *os.File
	memProfilePath string
)

// flushProfiles stops the CPU profile and writes the heap profile, if
// requested. Safe to call more than once.
func flushProfiles() {
	if cpuProfileFile != nil {
		pprof.StopCPUProfile()
		cpuProfileFile.Close()
		cpuProfileFile = nil
	}
	if memProfilePath != "" {
		path := memProfilePath
		memProfilePath = ""
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcbench:", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle allocations so the profile shows live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tcbench:", err)
		}
	}
}

func fatal(err error) {
	flushProfiles()
	fmt.Fprintln(os.Stderr, "tcbench:", err)
	os.Exit(1)
}
