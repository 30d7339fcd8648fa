package sim

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/dsa"
	"repro/internal/graph"
)

// QueryPair is one shortest-path request of a batch.
type QueryPair struct {
	Source, Target graph.NodeID
}

// BatchReport aggregates a query batch over the simulated cluster.
type BatchReport struct {
	// Queries is the number of requests; Answered how many were
	// reachable.
	Queries, Answered int
	// MeanSpeedup averages per-query speedups over answered queries.
	MeanSpeedup float64
	// MeanSitesUsed averages the sites touched per query.
	MeanSitesUsed float64
	// Utilization is Σ site busy / (sites used × phase-1 makespan),
	// averaged over queries: 1.0 means perfectly balanced fragments,
	// low values mean processors idling — the paper's load-balance goal
	// measured directly.
	Utilization float64
	// TotalParallel and TotalSequential are the summed simulated times.
	TotalParallel, TotalSequential time.Duration
	// Messages and TuplesShipped sum the interconnect traffic.
	Messages, TuplesShipped int
}

// Format renders the batch summary.
func (b *BatchReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "batch: %d queries (%d answered)\n", b.Queries, b.Answered)
	fmt.Fprintf(&sb, "  mean speedup:    %.2f\n", b.MeanSpeedup)
	fmt.Fprintf(&sb, "  mean sites used: %.1f\n", b.MeanSitesUsed)
	fmt.Fprintf(&sb, "  utilization:     %.2f\n", b.Utilization)
	fmt.Fprintf(&sb, "  simulated time:  %v parallel vs %v sequential\n",
		b.TotalParallel.Round(time.Microsecond), b.TotalSequential.Round(time.Microsecond))
	fmt.Fprintf(&sb, "  traffic:         %d messages, %d tuples\n", b.Messages, b.TuplesShipped)
	return sb.String()
}

// RunBatch executes a batch of queries and aggregates the reports.
func (c *Cluster) RunBatch(ctx context.Context, queries []QueryPair, engine dsa.Engine) (*BatchReport, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("sim: empty batch")
	}
	b := &BatchReport{Queries: len(queries)}
	var utilSum float64
	utilCount := 0
	for _, q := range queries {
		rep, err := c.Run(ctx, q.Source, q.Target, engine)
		if err != nil {
			return nil, err
		}
		b.Messages += len(rep.Messages)
		b.TuplesShipped += rep.TuplesShipped
		if !rep.Reachable {
			continue
		}
		b.Answered++
		b.MeanSpeedup += rep.Speedup
		b.MeanSitesUsed += float64(rep.SitesUsed)
		b.TotalParallel += rep.ParallelElapsed
		b.TotalSequential += rep.SequentialElapsed
		if rep.SitesUsed > 0 && rep.Phase1Elapsed > 0 {
			var busy time.Duration
			for _, d := range rep.SiteBusy {
				busy += d
			}
			utilSum += float64(busy) / (float64(rep.SitesUsed) * float64(rep.Phase1Elapsed))
			utilCount++
		}
	}
	if b.Answered > 0 {
		b.MeanSpeedup /= float64(b.Answered)
		b.MeanSitesUsed /= float64(b.Answered)
	}
	if utilCount > 0 {
		b.Utilization = utilSum / float64(utilCount)
	}
	return b, nil
}
