// Command tcload is the parallel load generator for tcserver: N
// workers firing random source/target queries at POST
// /v1/query, with replay passes that double as a cache-correctness
// oracle. It reports QPS, p50/p95/p99 latency and the server-side
// leg-cache hit rate, and exits non-zero on any transport error,
// non-2xx response, answer that changed between passes, unreachable
// answer under -expect-reachable, or hit rate below -min-hit-rate — the
// CI smoke gate.
//
// It is also the CI latency-SLO gate: -duration sustains the load for
// a wall-clock window, -slo-file holds the run to the committed
// p99/error budgets, and -json emits the machine-readable
// report — client latency percentiles, the SLO verdict, and a full
// scrape of the server's /metrics — that CI uploads as an artifact.
//
// Usage:
//
//	tcload -addr http://127.0.0.1:8642 -n 200 -parallel 8
//	tcload -addr http://127.0.0.1:8642 -n 200 -parallel 8 -repeat 2 -expect-reachable -min-hit-rate 0.05
//	tcload -addr http://127.0.0.1:8642 -n 100 -mode connected -engine bitset
//	tcload -addr http://127.0.0.1:8642 -n 200 -parallel 8 -write-rate 0.1 -expect-reachable
//	tcload -addr http://127.0.0.1:8642 -n 200 -parallel 8 -write-rate 0.15 \
//	    -duration 30s -slo-file SLO.json -json slo-report.json
//	tcload -addrs http://127.0.0.1:8642,http://127.0.0.1:8643,http://127.0.0.1:8644 \
//	    -n 200 -parallel 8 -repeat 2 -expect-reachable
//
// With -addrs the workload targets a cluster: read queries round-robin
// across every node (each is a full coordinator), while writes, the
// cache-delta differencing and the /metrics scrape pin to the first
// address. The replay oracle then doubles as a cross-node coherence
// check — every node must answer every pair identically.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/loadgen"
)

func main() {
	var (
		addr       = flag.String("addr", "http://127.0.0.1:8642", "server base URL")
		addrs      = flag.String("addrs", "", "comma-separated cluster base URLs: reads round-robin across them, writes and stats pin to the first (overrides -addr)")
		n          = flag.Int("n", 200, "requests per pass (random workload)")
		parallel   = flag.Int("parallel", 8, "concurrent workers")
		nodes      = flag.Int("nodes", 0, "random src/dst drawn from [0, nodes); 0 = ask the server's /stats")
		mode       = flag.String("mode", "query", "query (shortest path) or connected (reachability)")
		engine     = flag.String("engine", "", "per-request engine (empty = the server's planner chooses)")
		seed       = flag.Int64("seed", 1, "random workload seed")
		repeat     = flag.Int("repeat", 1, "passes over the same workload (>1 exercises the leg cache)")
		duration   = flag.Duration("duration", 0, "keep replaying passes until this much wall-clock time elapsed (0 = exactly -repeat passes)")
		expectUp   = flag.Bool("expect-reachable", false, "fail on any unreachable answer (oracle for connected graphs)")
		minHitRate = flag.Float64("min-hit-rate", -1, "fail if the leg-cache hit rate over the run is below this (-1 = no check)")
		writeRate  = flag.Float64("write-rate", 0, "fraction of slots that fire /v1/update write transactions instead of queries (answer-invariant heavy-edge insert+delete)")
		sloFile    = flag.String("slo-file", "", "JSON budget file (SLO.json): run fails if the measured p99s or error rate exceed it")
		jsonOut    = flag.String("json", "", "write the machine-readable run report (latencies, SLO verdict, /metrics scrape) to this path ('-' = stdout)")
		retryTrans = flag.Int("retry-transient", 0, "re-fire a read query up to N extra times after a transient 502/504 gateway blip (writes are never retried); retry counts land in the -json report")
	)
	flag.Parse()

	cfg := loadgen.LoadConfig{
		BaseURLs:        parseAddrs(*addrs),
		Requests:        *n,
		Parallel:        *parallel,
		Nodes:           *nodes,
		Engine:          *engine,
		Mode:            *mode,
		Seed:            *seed,
		Repeat:          *repeat,
		Duration:        *duration,
		ExpectReachable: *expectUp,
		WriteRate:       *writeRate,
		RetryTransient:  *retryTrans,
	}
	if len(cfg.BaseURLs) == 0 {
		cfg.BaseURLs = parseAddrs(*addr)
	}
	if cfg.Nodes <= 0 {
		st, err := loadgen.FetchStats(cfg.BaseURLs[0])
		if err != nil {
			fatal(fmt.Errorf("discovering node count from /stats: %v", err))
		}
		cfg.Nodes = st.Nodes
	}

	var budget loadgen.SLOBudget
	if *sloFile != "" {
		var err error
		if budget, err = loadgen.LoadSLOBudget(*sloFile); err != nil {
			fatal(err)
		}
	}

	rep, err := loadgen.RunLoad(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.Format())

	var slo *loadgen.SLOReport
	if !budget.Empty() {
		slo = rep.SLO(budget)
		fmt.Printf("SLO: read p99 %.3fms  write p99 %.3fms  error rate %.5f  -> %s\n",
			slo.ReadP99Ms, slo.WriteP99Ms, slo.ErrorRate, verdict(slo.Pass))
	}
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, rep, slo); err != nil {
			fatal(err)
		}
	}

	failed := false
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "tcload: FAIL: %d request errors\n", rep.Errors)
		failed = true
	}
	if rep.Mismatches > 0 {
		fmt.Fprintf(os.Stderr, "tcload: FAIL: %d answer mismatches\n", rep.Mismatches)
		failed = true
	}
	if *minHitRate >= 0 && rep.HitRate < *minHitRate {
		fmt.Fprintf(os.Stderr, "tcload: FAIL: leg-cache hit rate %.3f below floor %.3f\n", rep.HitRate, *minHitRate)
		failed = true
	}
	if slo != nil && !slo.Pass {
		for _, v := range slo.Violations {
			fmt.Fprintf(os.Stderr, "tcload: FAIL: SLO: %s\n", v)
		}
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// parseAddrs splits the -addrs cluster target list (nil when unset).
func parseAddrs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimRight(strings.TrimSpace(a), "/"); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// report is the -json envelope: the load report plus the SLO verdict.
type report struct {
	*loadgen.LoadReport
	SLO *loadgen.SLOReport `json:"slo,omitempty"`
}

// writeReport renders the machine-readable report to path or stdout.
func writeReport(path string, rep *loadgen.LoadReport, slo *loadgen.SLOReport) error {
	out, err := json.MarshalIndent(report{LoadReport: rep, SLO: slo}, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

func verdict(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcload:", err)
	os.Exit(1)
}
