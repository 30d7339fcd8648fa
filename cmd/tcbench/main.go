// Command tcbench regenerates every table and measured claim of the
// ICDE'93 paper (-h lists the tables and experiments; package
// internal/bench documents each). Serving numbers are not measured
// here: benchmarks/ is the ledger for those.
//
// Usage:
//
//	tcbench                      # everything
//	tcbench -table 2             # one table
//	tcbench -experiment speedup  # one performance experiment
//	tcbench -trials 20 -seed 7   # bigger batches
//	tcbench -experiment impact -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
)

// params are the knobs the arms share.
type params struct {
	trials, queries int
	seed            int64
}

// arm is one named thing tcbench can regenerate: a paper table or a §4
// experiment. run returns the text to print.
type arm struct {
	name string
	run  func(params) (string, error)
}

// formatted renders a table or experiment result unless it failed.
func formatted[R interface{ Format() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Format(), nil
}

// tables and experiments are the whole of what tcbench runs, in print
// order; the -table/-experiment help text and the unknown-name error
// are rendered from them.
var (
	tables = []arm{
		{"1", func(p params) (string, error) { return formatted(bench.Table1(p.trials, p.seed)) }},
		{"2", func(p params) (string, error) { return formatted(bench.Table2(p.trials, p.seed)) }},
		{"3", func(p params) (string, error) { return formatted(bench.Table3(p.trials, p.seed)) }},
	}
	experiments = []arm{
		{"speedup", func(p params) (string, error) { return formatted(bench.Speedup(60, p.queries, p.seed)) }},
		{"iterations", func(p params) (string, error) { return formatted(bench.Iterations(4, 25, p.queries, p.seed)) }},
		{"fig8", func(p params) (string, error) { return formatted(bench.Fig8(p.trials, p.seed)) }},
		{"phe", func(p params) (string, error) { return formatted(bench.PHE(p.queries, p.seed)) }},
		{"impact", func(p params) (string, error) { return formatted(bench.Impact(5, p.queries, p.seed)) }},
		{"amortize", func(p params) (string, error) { return formatted(bench.Amortize(p.queries, p.seed)) }},
		{"kconn", func(p params) (string, error) { return formatted(bench.KConnCost(p.seed)) }},
		{"ablation", func(p params) (string, error) {
			var s string
			for _, f := range []func(int, int64) (*bench.Ablation, error){
				bench.AblationBEAThreshold,
				bench.AblationBEAMode,
				bench.AblationCenterVariant,
				bench.AblationCenterPool,
				bench.AblationLinearStartCount,
			} {
				a, err := f(p.trials, p.seed)
				if err != nil {
					return "", err
				}
				s += a.Format() + "\n"
			}
			return s, nil
		}},
	}
)

func names(arms []arm) string {
	ns := make([]string, len(arms))
	for i, a := range arms {
		ns[i] = a.name
	}
	return strings.Join(ns, ", ")
}

// pick returns the arms name selects: all of them for "", the one it
// names otherwise. An unknown name is an error listing the valid ones.
func pick(kind string, arms []arm, name string) ([]arm, error) {
	if name == "" {
		return arms, nil
	}
	for _, a := range arms {
		if a.name == name {
			return []arm{a}, nil
		}
	}
	return nil, fmt.Errorf("unknown -%s %q (valid: %s)", kind, name, names(arms))
}

func main() {
	var (
		table      = flag.String("table", "", "table to reproduce: "+names(tables)+" (empty = all)")
		experiment = flag.String("experiment", "", "experiment: "+names(experiments)+" (empty = all)")
		trials     = flag.Int("trials", 10, "random graphs per table")
		queries    = flag.Int("queries", 20, "queries per performance point")
		seed       = flag.Int64("seed", 42, "base random seed")
		tablesOnly = flag.Bool("tables-only", false, "skip the performance experiments")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// Resolve both names before running anything, so a typo fails fast
	// rather than after minutes of tables.
	runTables, err := pick("table", tables, *table)
	if err != nil {
		fatal(err)
	}
	runExps, err := pick("experiment", experiments, *experiment)
	if err != nil {
		fatal(err)
	}
	if *experiment != "" {
		runTables = nil
	}
	if *table != "" || *tablesOnly {
		runExps = nil
	}

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

	p := params{trials: *trials, queries: *queries, seed: *seed}
	for _, arms := range [][]arm{runTables, runExps} {
		for _, a := range arms {
			out, err := a.run(p)
			if err != nil {
				fatal(fmt.Errorf("%s: %v", a.name, err))
			}
			fmt.Println(out)
		}
	}
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
