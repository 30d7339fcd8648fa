package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// manifestMetric is one end_to_end entry of BENCHMARK.json.
type manifestMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []metricDef      `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// The three verdicts of the comparator.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// worsening is how much worse b's median is than a's, as a share of
// a's: positive is worse, whichever direction the metric prefers.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge applies one metric's bound to two sets of runs. The run-to-run
// spread (interquartile range over the median, the wider side's) comes
// first: when it exceeds the bound, the runs cannot resolve a change of
// the bound's size and the row says so instead of "ok".
func judge(a, b []float64, better string, bound float64) (string, float64, float64) {
	worse := worsening(median(a), median(b), better)
	wide := spread(a)
	if s := spread(b); s > wide {
		wide = s
	}
	switch {
	case wide > bound:
		return verdictUnresolved, worse, wide
	case worse > bound:
		return verdictRegressed, worse, wide
	}
	return verdictOK, worse, wide
}

// loadRuns reads the end-to-end result files of a directory into
// workload -> metric -> one value per run.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s holds no *-trace0.json result files", dir)
	}
	sort.Strings(files)
	out := map[string]map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: the run failed %d of %d ops; its numbers compare nothing", f, r.Failed, r.Attempted)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, nil
}

// compareDirs prints one row per workload and end-to-end metric and
// reports whether every row is ok.
func compareDirs(w io.Writer, manifestPath, dirA, dirB string) (bool, error) {
	m, err := readManifest(manifestPath)
	if err != nil {
		return false, err
	}
	a, err := loadRuns(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return false, err
	}
	clean := true
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tmedian A\tmedian B\tworse by\tspread\tbound\tverdict\t")
	for _, wl := range m.Workloads {
		for _, em := range m.EndToEnd {
			va, vb := a[wl.Name][em.Name], b[wl.Name][em.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: missing on one side", wl.Name, em.Name)
			}
			v, worse, wide := judge(va, vb, em.Better, em.Bound)
			clean = clean && v == verdictOK
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.4g\t%.4g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\t\n",
				wl.Name, em.Name, em.Unit, len(va), len(vb), median(va), median(vb), 100*worse, 100*wide, 100*em.Bound, v)
		}
	}
	return clean, tw.Flush()
}
