package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one op share its index;
// parent names the span that contains this one. Start and End are wall
// clock; Speed is the machine-speed factor of the pass the span was
// recorded in (see calib.go), and a span's time is its wall-clock
// duration multiplied by it.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent string  `json:"parent"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Speed  float64 `json:"speed"`
}

// us is the span's duration in reference-machine microseconds.
func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 * s.Speed }

// recorder times calls and, while on, keeps them as spans in memory;
// they are written out when the run ends.
type recorder struct {
	on     bool
	origin time.Time
	spans  []span
}

// time runs fn and returns its duration in microseconds.
func (r *recorder) time(name, parent string, op int, fn func()) float64 {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	if r.on {
		r.spans = append(r.spans, span{name, op, parent, t0.Sub(r.origin).Nanoseconds(), t1.Sub(r.origin).Nanoseconds(), 1})
	}
	return float64(t1.Sub(t0).Nanoseconds()) / 1e3
}

// The onion enters the same deployment at successively deeper public
// seams, one pass per level over the same ops at concurrency 1. A
// span's name is the layer whose own time it isolates: the level-0
// span (a loopback POST) minus the level-1 span (the handler on a
// recorder) is what the network stack cost, and so on inwards.
const (
	layerNet      = "server.net"      // L0: loopback HTTP round trip
	layerCodec    = "server.codec"    // L1: handler, routing, JSON both ways
	layerFacade   = "tcq.facade"      // L2: validate, plan, pin, stream
	layerPlan     = "tcq.plan"        // the planner alone, inside L2
	layerExec     = "server.exec"     // L3: pooled, cached executor
	layerDSAPlan  = "dsa.plan"        // chain enumeration and leg building
	layerLegExec  = "dsa.leg_exec"    // kernel plus materialisation, on a miss
	layerLegRPC   = "cluster.leg_rpc" // a leg fetched from its owner
	layerFilter   = "dsa.filter"      // exit-set selection per leg
	layerAssemble = "dsa.assemble"    // accounting plus the join chain
)

// onionLayers are the layers whose self times must add up to the
// level-0 latency; each is reported as the per-layer metric <layer>_us.
var onionLayers = []string{
	layerNet, layerCodec, layerFacade, layerPlan, layerExec,
	layerDSAPlan, layerLegExec, layerLegRPC, layerFilter, layerAssemble,
}

// selfTimes returns, per span name, one value per op: the time of the
// op's spans of that name minus the time of the spans they contain
// (those naming it as parent), in microseconds. An op with no span of
// some name contributes 0 there, so a layer's median is its cost to a
// typical op, not to the ops that happened to reach it.
func selfTimes(spans []span) map[string][]float64 {
	type key struct {
		op   int
		name string
	}
	total, children := map[key]float64{}, map[key]float64{}
	opSet, names := map[int]bool{}, map[string]bool{}
	for _, s := range spans {
		us := s.us()
		total[key{s.Op, s.Name}] += us
		children[key{s.Op, s.Parent}] += us
		opSet[s.Op], names[s.Name] = true, true
	}
	ops := make([]int, 0, len(opSet))
	for op := range opSet {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := map[string][]float64{}
	for name := range names {
		vals := make([]float64, len(ops))
		for i, op := range ops {
			if t, ok := total[key{op, name}]; ok {
				vals[i] = t - children[key{op, name}]
			}
		}
		out[name] = vals
	}
	return out
}

// residualPct is how far the medians of the layers' self times are from
// adding up to the median of the whole, as a percentage of the whole.
func residualPct(whole float64, self map[string][]float64) float64 {
	if whole == 0 {
		return 0
	}
	var parts float64
	for _, layer := range onionLayers {
		parts += median(self[layer])
	}
	diff := whole - parts
	if diff < 0 {
		diff = -diff
	}
	return 100 * diff / whole
}

// onion is the outcome of the traced passes.
type onion struct {
	spans     []span
	self      map[string][]float64
	l0OffUS   []float64 // level 0 with recording off
	l0OnUS    []float64 // level 0 with recording on
	respBytes []float64
	answers   []pairResult // level 2's answers, for the exact counts they carry
	walk      *walker
	attempted int
	failed    int
}

// runOnion replays ops at every level. Level 0 runs twice, with span
// recording on for every other op and the other half the second time,
// so "recording on" and "recording off" each see every op once and
// share whatever drift there is between the two passes. The first pass
// also decides how many ops every later pass replays: as many as fit
// into budget, within [minOps, maxOps]. Before the timed walk, the
// walker's memo is filled by an untimed walk over memoWarm (nil: over
// the replayed ops themselves), so the walk finds cached exactly the
// legs the server does. Every pass starts from a collected heap and ends
// with a calibration, whose factor scales the pass's times.
func runOnion(ctx context.Context, pc *pacer, dep *deployment, ops []op, memoWarm []op, minOps, maxOps int, budget time.Duration) (*onion, error) {
	n := dep.nodes[0]
	rec := &recorder{origin: time.Now()}
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: time.Minute}
	if len(ops) > maxOps {
		ops = ops[:maxOps]
	}
	on := &onion{l0OffUS: make([]float64, len(ops)), l0OnUS: make([]float64, len(ops))}
	// endPass calibrates and stamps the factor on the spans the pass
	// recorded.
	stamped := 0
	endPass := func() float64 {
		f := pc.lap()
		for ; stamped < len(rec.spans); stamped++ {
			rec.spans[stamped].Speed = f
		}
		return f
	}
	level0 := func(firstPass bool) {
		runtime.GC()
		pc.lap()
		start := time.Now()
		wall := make([]float64, 0, len(ops))
		for i := range ops {
			if firstPass && i >= minOps && time.Since(start) >= budget {
				ops, on.l0OffUS, on.l0OnUS = ops[:i], on.l0OffUS[:i], on.l0OnUS[:i]
				break
			}
			o := &ops[i]
			var status int
			var body []byte
			var err error
			rec.on = (i%2 == 0) == firstPass
			wall = append(wall, rec.time(layerNet, "", i, func() { status, body, err = post(hc, n.ts.URL+o.path, o.body) }))
			on.attempted++
			if err != nil || checkRead(o, status, body) != len(o.pairs) {
				on.failed++
			}
			if rec.on {
				on.respBytes = append(on.respBytes, float64(len(body)))
			}
		}
		f := endPass()
		for i, us := range wall {
			if (i%2 == 0) == firstPass {
				on.l0OnUS[i] = us * f
			} else {
				on.l0OffUS[i] = us * f
			}
		}
	}
	level0(true)
	level0(false)
	rec.on = true
	pass := func(name string, fn func(i int, o *op) error) error {
		runtime.GC()
		pc.lap()
		for i := range ops {
			on.attempted++
			if err := fn(i, &ops[i]); err != nil {
				return fmt.Errorf("onion %s, op %d: %w", name, i, err)
			}
		}
		endPass()
		return nil
	}
	err := pass(layerCodec, func(i int, o *op) error {
		var status int
		var body []byte
		rec.time(layerCodec, layerNet, i, func() { status, body = n.serveHTTP(o) })
		if checkRead(o, status, body) != len(o.pairs) {
			on.failed++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	checked := func(o *op, got []pairResult, err error) error {
		if err == nil && !agrees(o, got) {
			on.failed++
		}
		return err
	}
	err = pass(layerFacade, func(i int, o *op) error {
		var got []pairResult
		var err error
		rec.time(layerFacade, layerCodec, i, func() { got, err = n.facadeQuery(ctx, o) })
		on.answers = append(on.answers, got...)
		return checked(o, got, err)
	})
	if err != nil {
		return nil, err
	}
	err = pass(layerPlan, func(i int, o *op) error {
		var err error
		rec.time(layerPlan, layerFacade, i, func() { err = n.facadePlan(o) })
		return err
	})
	if err != nil {
		return nil, err
	}
	err = pass(layerExec, func(i int, o *op) error {
		var got []pairResult
		var err error
		rec.time(layerExec, layerFacade, i, func() { got, err = dep.runPairs(ctx, n, o) })
		return checked(o, got, err)
	})
	if err != nil {
		return nil, err
	}
	on.walk = dep.newWalker()
	off := &recorder{}
	if memoWarm == nil {
		memoWarm = ops
	}
	for i := range memoWarm {
		if _, err := on.walk.walk(ctx, off, i, layerExec, &memoWarm[i]); err != nil {
			return nil, fmt.Errorf("onion memo warm-up, op %d: %w", i, err)
		}
	}
	on.walk.tally, on.walk.remote = walkTally{}, nil
	err = pass("walk", func(i int, o *op) error {
		got, err := on.walk.walk(ctx, rec, i, layerExec, o)
		return checked(o, got, err)
	})
	if err != nil {
		return nil, err
	}
	on.spans = rec.spans
	on.self = selfTimes(rec.spans)
	return on, nil
}
