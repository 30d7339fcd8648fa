package main

// This file holds every call the benchmark makes into internal/dsa,
// internal/server, internal/cluster and internal/tc: booting the real
// serving stack, entering it at each public seam of the onion trace,
// walking the executor's layers by hand, and reading the counters the
// program already exports. A change that renames or re-signs one of the
// functions probed here must be preceded by a benchmark-only change
// that edits this file and nothing else, so that parent and change are
// always measured by identical harness code.
//
// internal/analysis/importboundary.go lists who may import those
// packages and lies outside the benchmark's directory, so the imports
// carry the repository's reasoned suppression instead of an allowlist
// entry.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster" //tcvet:ignore importboundary the benchmark boots real coordinators and times the leg transport; the allowlist file is outside the benchmark's paths
	"repro/internal/dsa"     //tcvet:ignore importboundary the per-layer trace times the planner and executor seams directly; the allowlist file is outside the benchmark's paths
	"repro/internal/graph"
	"repro/internal/relation"
	"repro/internal/server" //tcvet:ignore importboundary the benchmark serves from the real handler and reads Server.Stats; the allowlist file is outside the benchmark's paths
	"repro/internal/tc"
	"repro/pkg/tcq"
)

// lateHandler lets a listener exist before the server it routes to:
// peer URLs feed the coordinators that the servers are built with.
type lateHandler struct {
	h atomic.Pointer[http.Handler]
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := l.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "not ready", http.StatusServiceUnavailable)
}

// node is one serving process of a deployment: a dataset, the server
// over it and its loopback listener.
type node struct {
	ds      *tcq.Dataset
	srv     *server.Server
	ts      *httptest.Server
	handler http.Handler
	coord   *cluster.Coordinator
}

// deployment is the system under test: one node, or a cluster of nodes
// wired to each other over loopback HTTP.
type deployment struct {
	nodes []*node
	// engine is what the facade's planner picks for a single-pair cost
	// query here; the deeper onion levels must run the same engine.
	engine dsa.Engine
}

// boot serves each dataset from a real server.Server behind a loopback
// listener. More than one dataset makes a cluster: every node gets a
// coordinator over the full membership and the production HTTP
// transport, as tcserver -peers would.
func boot(datasets []*tcq.Dataset, cacheCap int) (*deployment, error) {
	d := &deployment{}
	lates := make([]*lateHandler, len(datasets))
	var peers []cluster.Node
	for i, ds := range datasets {
		lates[i] = &lateHandler{}
		n := &node{ds: ds, ts: httptest.NewServer(lates[i])}
		d.nodes = append(d.nodes, n)
		peers = append(peers, cluster.Node{ID: string(rune('a' + i)), URL: n.ts.URL})
	}
	for i, n := range d.nodes {
		cfg := server.Config{CacheCapacity: cacheCap}
		if len(datasets) > 1 {
			coord, err := cluster.New(cluster.Config{NodeID: peers[i].ID, Peers: peers})
			if err != nil {
				d.close()
				return nil, err
			}
			cfg.Cluster, n.coord = coord, coord
		}
		srv, err := server.NewDataset(n.ds, cfg)
		if err != nil {
			d.close()
			return nil, err
		}
		n.srv, n.handler = srv, srv.Handler()
		lates[i].h.Store(&n.handler)
	}
	ex, err := d.nodes[0].srv.Facade().Plan(pairRequest([2]int{0, 0}))
	if err != nil {
		d.close()
		return nil, err
	}
	if d.engine, err = dsa.ParseEngine(ex.Engine.String()); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the servers and listeners and releases a durable
// dataset's journal.
func (d *deployment) close() error {
	var firstErr error
	for _, n := range d.nodes {
		if n.srv != nil {
			n.srv.Close()
		}
		n.ts.Close()
		if err := n.ds.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (d *deployment) urls() []string {
	out := make([]string, len(d.nodes))
	for i, n := range d.nodes {
		out[i] = n.ts.URL
	}
	return out
}

// counters is the sum over the deployment's nodes of what the servers
// export: leg-cache statistics, per-site busy time and the flat
// /metrics sample map.
type counters struct {
	hits, misses, evictions, invalidated, retained float64
	siteBusyNS                                     []float64
	metrics                                        map[string]float64
}

func (d *deployment) counters() counters {
	c := counters{metrics: map[string]float64{}}
	for _, n := range d.nodes {
		st := n.srv.Stats()
		c.hits += float64(st.Cache.Hits)
		c.misses += float64(st.Cache.Misses)
		c.evictions += float64(st.Cache.Evictions)
		c.invalidated += float64(st.Cache.Invalidated)
		c.retained += float64(st.Cache.Retained)
		if c.siteBusyNS == nil {
			c.siteBusyNS = make([]float64, len(st.Site))
		}
		for i, s := range st.Site {
			c.siteBusyNS[i] += float64(s.BusyNS)
		}
		for k, v := range st.Metrics {
			c.metrics[k] += v
		}
	}
	return c
}

// family sums every sample of one metric family (all label sets).
func (c counters) family(name string) float64 {
	var total float64
	for k, v := range c.metrics {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

func pairRequest(p [2]int) tcq.Request {
	return tcq.Request{Sources: []int{p[0]}, Targets: []int{p[1]}, Mode: tcq.ModeCost}
}

// pairResult is what one seam answered for one pair, plus the exact
// counts the program reports about how it got there.
type pairResult struct {
	reachable bool
	cost      float64
	chains    int
	joins     int
	maxOp     int
	shipped   int
}

// agrees reports whether every pair's answer matches the oracle.
func agrees(o *op, got []pairResult) bool {
	if len(got) != len(o.pairs) {
		return false
	}
	for i, r := range got {
		if !costMatches(r.reachable, r.cost, o.want[i]) {
			return false
		}
	}
	return true
}

// serveHTTP is onion level 1: the server's handler on an in-memory
// recorder — routing, instrumentation and the JSON codec, no socket.
func (n *node) serveHTTP(o *op) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	n.handler.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// facadeQuery is onion level 2: the server-backed tcq facade, which
// validates, plans, pins a snapshot and runs every pair.
func (n *node) facadeQuery(ctx context.Context, o *op) ([]pairResult, error) {
	answer := func(res *tcq.Result) pairResult {
		a := res.Answers[0]
		return pairResult{a.Reachable, a.Cost, a.ChainsConsidered, a.AssemblyJoins, a.MaxOperand, a.TuplesShipped}
	}
	if len(o.pairs) == 1 {
		res, err := n.srv.Facade().Query(ctx, pairRequest(o.pairs[0]))
		if err != nil {
			return nil, err
		}
		return []pairResult{answer(res)}, nil
	}
	reqs := make([]tcq.Request, len(o.pairs))
	for i, p := range o.pairs {
		reqs[i] = pairRequest(p)
	}
	batch, err := n.srv.Facade().QueryBatch(ctx, reqs)
	if err != nil {
		return nil, err
	}
	out := make([]pairResult, len(batch))
	for i, br := range batch {
		if br.Err != nil {
			return nil, br.Err
		}
		out[i] = answer(br.Result)
	}
	return out, nil
}

// facadePlan is the planner alone: what level 2 spends choosing an
// engine.
func (n *node) facadePlan(o *op) error {
	for _, p := range o.pairs {
		if _, err := n.srv.Facade().Plan(pairRequest(p)); err != nil {
			return err
		}
	}
	return nil
}

// runPairs is onion level 3: the pooled, leg-cached executor behind
// tcq.Runner, on the pinned snapshot, with the engine already resolved.
func (d *deployment) runPairs(ctx context.Context, n *node, o *op) ([]pairResult, error) {
	snap := n.ds.Snapshot()
	out := make([]pairResult, len(o.pairs))
	for i, p := range o.pairs {
		res, _, err := n.srv.RunPair(ctx, snap, graph.NodeID(p[0]), graph.NodeID(p[1]), d.engine, tcq.ModeCost)
		if err != nil {
			return nil, err
		}
		out[i] = pairResult{reachable: res.Reachable, cost: res.Cost}
	}
	return out, nil
}

// walker performs by hand, through the public functions of each layer,
// what the executor below level 3 does for one pair: plan, run or look
// up each leg, filter it to the leg's exit set, assemble. Its memo
// plays the server's leg cache, so a leg the server would find cached
// costs the walk nothing either; a leg owned by a cluster peer goes
// over the production transport to that peer, as the server's would.
type walker struct {
	d          *deployment
	n          *node
	st         *dsa.Store
	epoch      uint64
	memo       map[string]memoLeg
	transports map[string]*cluster.HTTPTransport
	tally      walkTally
	// remote keeps the remote legs seen, for the codec probe.
	remote []memoLeg
}

type memoLeg struct {
	rel   *relation.Relation
	stats tc.Stats
}

// walkTally accumulates exact counts over a walk.
type walkTally struct {
	pairs, chains, legs, remoteLegs int
	legRowsIn, legRowsOut           int
	execs                           int
}

func (d *deployment) newWalker() *walker {
	n := d.nodes[0]
	snap := n.ds.Snapshot()
	w := &walker{d: d, n: n, st: snap.Store(), epoch: snap.Epoch(), memo: map[string]memoLeg{}, transports: map[string]*cluster.HTTPTransport{}}
	if n.coord != nil {
		for _, peer := range n.coord.Nodes() {
			if peer.ID != n.coord.Self().ID {
				w.transports[peer.ID] = cluster.NewHTTPTransport(peer, 5*time.Second)
			}
		}
	}
	return w
}

func legMemoKey(leg dsa.Leg) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d|", leg.SiteID)
	for _, e := range leg.Entry {
		fmt.Fprintf(&sb, "%d,", e)
	}
	return sb.String()
}

// walk runs every pair of one op through the layers, timing each call
// as a span under parent.
func (w *walker) walk(ctx context.Context, rec *recorder, idx int, parent string, o *op) ([]pairResult, error) {
	out := make([]pairResult, len(o.pairs))
	for pi, p := range o.pairs {
		var plan *dsa.Plan
		var err error
		rec.time("dsa.plan", parent, idx, func() {
			plan, err = w.st.NewPlan(graph.NodeID(p[0]), graph.NodeID(p[1]))
		})
		if err != nil {
			return nil, err
		}
		w.tally.pairs++
		w.tally.chains += len(plan.Chains)
		w.tally.legs += len(plan.Legs)
		res, done := w.st.PlanResult(plan)
		if !done {
			results := make([]*dsa.LegResult, len(plan.Legs))
			for li, leg := range plan.Legs {
				full, err := w.legFacts(ctx, rec, idx, parent, leg)
				if err != nil {
					return nil, err
				}
				var filtered *relation.Relation
				rec.time("dsa.filter", parent, idx, func() {
					filtered, err = dsa.FilterLegFacts(full.rel, leg)
				})
				if err != nil {
					return nil, err
				}
				w.tally.legRowsIn += full.rel.Len()
				w.tally.legRowsOut += filtered.Len()
				results[li] = &dsa.LegResult{Leg: leg, Rel: filtered, Stats: full.stats}
			}
			rec.time("dsa.assemble", parent, idx, func() {
				err = w.st.FinishPlan(plan, results, res)
			})
			if err != nil {
				return nil, err
			}
		}
		out[pi] = pairResult{reachable: res.Reachable, cost: res.Cost}
	}
	return out, nil
}

// legFacts returns a leg's full fact relation the way the server would
// get it: from the owner over HTTP, from the cache, or from the kernel.
func (w *walker) legFacts(ctx context.Context, rec *recorder, idx int, parent string, leg dsa.Leg) (memoLeg, error) {
	if w.n.coord != nil && !w.n.coord.IsLocal(leg.SiteID) {
		var out memoLeg
		var err error
		rec.time("cluster.leg_rpc", parent, idx, func() {
			var resp *cluster.LegResponse
			req := cluster.NewLegRequest(leg.SiteID, leg.Entry, w.d.engine.String(), w.epoch)
			if resp, err = w.transports[w.n.coord.Owner(leg.SiteID).ID].ExecuteLeg(ctx, req); err == nil {
				out.rel, out.stats, err = resp.Facts()
			}
		})
		if err == nil {
			w.tally.remoteLegs++
			if len(w.remote) < 8 {
				w.remote = append(w.remote, out)
			}
		}
		return out, err
	}
	key := legMemoKey(leg)
	if cached, ok := w.memo[key]; ok {
		return cached, nil
	}
	var out memoLeg
	var err error
	rec.time("dsa.leg_exec", parent, idx, func() {
		out.rel, out.stats, err = w.st.ExecuteLegFullCtx(ctx, leg.SiteID, leg.Entry, w.d.engine)
	})
	if err == nil {
		w.tally.execs++
		w.memo[key] = out
	}
	return out, err
}

// legCodec times what a remote leg costs besides the network and the
// owner's work: flatten to the wire form, JSON both ways, rebuild the
// relation. It returns the microseconds and the wire size.
func legCodec(leg memoLeg) (us, wireBytes float64, err error) {
	t0 := time.Now()
	data, err := json.Marshal(cluster.NewLegResponse(0, true, leg.rel, leg.stats))
	if err != nil {
		return 0, 0, err
	}
	var back cluster.LegResponse
	if err = json.Unmarshal(data, &back); err != nil {
		return 0, 0, err
	}
	if _, _, err = back.Facts(); err != nil {
		return 0, 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3, float64(len(data)), nil
}

// kernelProbe times the two CSR kernels alone on the source leg of one
// pair: the dense cost kernel the site keeps, and the bitset
// reachability kernel over the same augmented fragment.
func (w *walker) kernelProbe(ctx context.Context, p [2]int, rels map[int]*relation.Relation) (denseUS, bitsetUS float64, iterations int, err error) {
	plan, err := w.st.NewPlan(graph.NodeID(p[0]), graph.NodeID(p[1]))
	if err != nil || len(plan.Legs) == 0 {
		return 0, 0, 0, err
	}
	leg := plan.Legs[0]
	site := w.st.Site(leg.SiteID)
	kernel, err := site.DenseKernel()
	if err != nil {
		return 0, 0, 0, err
	}
	rel, ok := rels[leg.SiteID]
	if !ok {
		rel = relation.FromGraph(site.Augmented())
		rels[leg.SiteID] = rel
	}
	t0 := time.Now()
	_, stats, err := kernel.CostFromCtx(ctx, leg.Entry)
	if err != nil {
		return 0, 0, 0, err
	}
	t1 := time.Now()
	if _, _, err = tc.BitsetReachableFromCtx(ctx, rel, leg.Entry); err != nil {
		return 0, 0, 0, err
	}
	t2 := time.Now()
	return float64(t1.Sub(t0).Nanoseconds()) / 1e3, float64(t2.Sub(t1).Nanoseconds()) / 1e3, stats.Iterations, nil
}
