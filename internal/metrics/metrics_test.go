package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the le semantics: an observation
// equal to a bound lands in that bound's bucket (le is <=), one just
// above lands in the next, and values above the last finite bound go
// to +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 5, 5.0000001, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 2} // (≤1)=0.5,1  (1,2]=1.0..,2  (2,5]=5  (>5)=5.0..,100
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d: got %d observations, want %d", i, got, w)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	wantSum := 0.5 + 1 + 1.0000001 + 2 + 5 + 5.0000001 + 100
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}

	// Cumulative rendering: le="2" must count everything ≤ 2.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range []string{
		`h_bucket{le="1"} 2`,
		`h_bucket{le="2"} 4`,
		`h_bucket{le="5"} 5`,
		`h_bucket{le="+Inf"} 7`,
		`h_count 7`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

// TestConcurrentIncrements hammers every metric kind from many
// goroutines; run under -race this is the data-race proof, and the
// totals prove no increment is lost.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{0.5, 1})
	cv := r.CounterVec("cv", "", "worker")
	hv := r.HistogramVec("hv", "", []float64{1, 2}, "mode")

	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mode := []string{"cost", "connectivity"}[w%2]
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.75)
				cv.With("w").Inc()
				hv.With(mode).Observe(1.5)
				// Interleave scrapes with the increments.
				if i%1000 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
					}
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	const total = workers * perWorker
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Errorf("gauge = %v, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	if math.Abs(h.Sum()-0.75*total) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), 0.75*total)
	}
	if cv.With("w").Value() != total {
		t.Errorf("countervec = %d, want %d", cv.With("w").Value(), total)
	}
	if n := hv.With("cost").Count() + hv.With("connectivity").Count(); n != total {
		t.Errorf("histogramvec count = %d, want %d", n, total)
	}
}

// TestExpositionGolden freezes the full rendered format — HELP/TYPE
// lines, label rendering, sorted children, func collectors, histogram
// suffixes — against a golden string.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tc_requests_total", "Requests served.")
	c.Add(3)
	g := r.Gauge("tc_inflight", "In-flight requests.")
	g.Set(2.5)
	cv := r.CounterVec("tc_errors_total", "Errors by endpoint.", "endpoint")
	cv.With("/v1/query").Add(1)
	cv.With("/stats").Add(4)
	r.GaugeFunc("tc_epoch", "Current epoch.", func() float64 { return 7 })
	h := r.Histogram("tc_lat_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP tc_requests_total Requests served.
# TYPE tc_requests_total counter
tc_requests_total 3
# HELP tc_inflight In-flight requests.
# TYPE tc_inflight gauge
tc_inflight 2.5
# HELP tc_errors_total Errors by endpoint.
# TYPE tc_errors_total counter
tc_errors_total{endpoint="/stats"} 4
tc_errors_total{endpoint="/v1/query"} 1
# HELP tc_epoch Current epoch.
# TYPE tc_epoch gauge
tc_epoch 7
# HELP tc_lat_seconds Latency.
# TYPE tc_lat_seconds histogram
tc_lat_seconds_bucket{le="0.1"} 1
tc_lat_seconds_bucket{le="1"} 2
tc_lat_seconds_bucket{le="+Inf"} 3
tc_lat_seconds_sum 5.55
tc_lat_seconds_count 3
`
	if sb.String() != want {
		t.Errorf("exposition drifted.\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestParseRoundTrip feeds WritePrometheus output to ParseText and
// checks the samples survive, including labeled and histogram series.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help with \\ backslash").Add(42)
	r.CounterVec("b_total", "", "engine", "mode").With("dense", "cost").Add(9)
	h := r.Histogram("lat", "", []float64{0.5})
	h.Observe(0.25)
	g := r.Gauge("inf_gauge", "")
	g.Set(math.Inf(1))

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseText on our own output: %v", err)
	}
	checks := map[string]float64{
		"a_total":                             42,
		`b_total{engine="dense",mode="cost"}`: 9,
		`lat_bucket{le="0.5"}`:                1,
		`lat_bucket{le="+Inf"}`:               1,
		"lat_sum":                             0.25,
		"lat_count":                           1,
	}
	for k, want := range checks {
		if v, ok := got[k]; !ok || v != want {
			t.Errorf("parsed[%q] = %v (present %v), want %v", k, v, ok, want)
		}
	}
	if !math.IsInf(got["inf_gauge"], 1) {
		t.Errorf("inf_gauge = %v, want +Inf", got["inf_gauge"])
	}
}

// TestParseRejectsMalformed: the parser is the CI well-formedness
// check, so it must reject broken lines rather than skip them.
func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value\n",
		"bad name 1\n",
		`unterminated{x="y 1` + "\n",
		`unquoted{x=y} 1` + "\n",
		"name 1 2 3\n",
		"name notanumber\n",
		"",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) succeeded, want error", bad)
		}
	}
}

// TestSnapshot checks the flattened map the /stats embedding uses.
func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(5)
	r.GaugeFunc("fn_gauge", "", func() float64 { return 1.25 })
	h := r.HistogramVec("lat", "", []float64{1}, "mode")
	h.With("cost").Observe(0.5)

	snap := r.Snapshot()
	if snap["c_total"] != 5 {
		t.Errorf("c_total = %v, want 5", snap["c_total"])
	}
	if snap["fn_gauge"] != 1.25 {
		t.Errorf("fn_gauge = %v, want 1.25", snap["fn_gauge"])
	}
	if snap[`lat_count{mode="cost"}`] != 1 || snap[`lat_sum{mode="cost"}`] != 0.5 {
		t.Errorf("histogram snapshot = %v", snap)
	}
}

// TestDuplicateRegistrationPanics: shadowed series fail loudly.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("dup", "")
}

// TestWithExistingSeriesAllocatesNothing: looking up a series that
// exists allocates nothing, so a per-query observation costs no
// garbage; the first lookup creates the series under the joined key.
func TestWithExistingSeriesAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("lat", "", []float64{1}, "engine", "mode")
	first := h.With("dense", "cost")
	if allocs := testing.AllocsPerRun(100, func() {
		if h.With("dense", "cost") != first {
			t.Fatal("With returned another series for the same label values")
		}
	}); allocs != 0 {
		t.Errorf("With on an existing series: %v allocations, want 0", allocs)
	}
	if _, ok := h.f.children["dense\x00cost"]; !ok || len(h.f.children) != 1 {
		t.Errorf("children keyed %v, want the one key \"dense\\x00cost\"", h.f.children)
	}
}
