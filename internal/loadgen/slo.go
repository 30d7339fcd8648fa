package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// SLOBudget is a committed latency/error budget for a load run — the
// contents of SLO.json, the contract the CI latency-slo gate enforces.
// Nil fields are unchecked, so a budget file can pin only the
// dimensions it cares about.
type SLOBudget struct {
	// ReadP99Ms bounds the read (query) p99 latency in milliseconds.
	ReadP99Ms *float64 `json:"read_p99_ms,omitempty"`
	// WriteP99Ms bounds the write (/v1/update transaction) p99 latency
	// in milliseconds.
	WriteP99Ms *float64 `json:"write_p99_ms,omitempty"`
	// ErrorRate bounds errors/requests (0 = no errors tolerated).
	ErrorRate *float64 `json:"error_rate,omitempty"`
}

// Empty reports whether no dimension is budgeted.
func (b SLOBudget) Empty() bool {
	return b.ReadP99Ms == nil && b.WriteP99Ms == nil && b.ErrorRate == nil
}

// LoadSLOBudget reads a budget file (SLO.json). Unknown keys are
// rejected so a typo in the committed budget cannot silently disable
// a gate.
func LoadSLOBudget(path string) (SLOBudget, error) {
	f, err := os.Open(path)
	if err != nil {
		return SLOBudget{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b SLOBudget
	if err := dec.Decode(&b); err != nil {
		return SLOBudget{}, fmt.Errorf("loadgen: slo: %s: %w", path, err)
	}
	return b, nil
}

// SLOReport is the machine-readable verdict of one load run against a
// budget: measured values, the budget they were held to, and one
// violation string per exceeded dimension. It is embedded in the
// tcload -json report and uploaded as the CI artifact.
type SLOReport struct {
	Budget SLOBudget `json:"budget"`
	// ReadP99Ms / WriteP99Ms / ErrorRate are the measured values
	// (client-observed latency, nearest-rank percentile).
	ReadP99Ms  float64 `json:"read_p99_ms"`
	WriteP99Ms float64 `json:"write_p99_ms"`
	ErrorRate  float64 `json:"error_rate"`
	// Violations lists every exceeded budget dimension; empty means the
	// run is within budget.
	Violations []string `json:"violations,omitempty"`
	Pass       bool     `json:"pass"`
}

// SLO evaluates the run against a budget.
func (r *LoadReport) SLO(b SLOBudget) *SLOReport {
	rep := &SLOReport{
		Budget:     b,
		ReadP99Ms:  float64(r.P99) / float64(time.Millisecond),
		WriteP99Ms: float64(r.WriteP99) / float64(time.Millisecond),
	}
	if r.Requests > 0 {
		rep.ErrorRate = float64(r.Errors) / float64(r.Requests)
	}
	if b.ReadP99Ms != nil && rep.ReadP99Ms > *b.ReadP99Ms {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("read p99 %.3fms exceeds budget %.3fms", rep.ReadP99Ms, *b.ReadP99Ms))
	}
	if b.WriteP99Ms != nil && rep.WriteP99Ms > *b.WriteP99Ms {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("write p99 %.3fms exceeds budget %.3fms", rep.WriteP99Ms, *b.WriteP99Ms))
	}
	if b.ErrorRate != nil && rep.ErrorRate > *b.ErrorRate {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("error rate %.5f exceeds budget %.5f", rep.ErrorRate, *b.ErrorRate))
	}
	rep.Pass = len(rep.Violations) == 0
	return rep
}
