package oracle

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/pkg/tcq"
)

// scope is a testing.TB whose cleanups run when one generation is done
// with, not when the whole loop is: a hundred generations' servers and
// listeners are not kept open side by side.
type scope struct {
	testing.TB
	cleanups []func()
}

func (s *scope) Cleanup(f func()) { s.cleanups = append(s.cleanups, f) }

func (s *scope) close() {
	for i := len(s.cleanups) - 1; i >= 0; i-- {
		s.cleanups[i]()
	}
}

// must stops the test on a deployment step that failed.
func must(t testing.TB, g *Generation, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
}

// deploy builds the generation's epoch-0 dataset.
func deploy(t testing.TB, g *Generation) *tcq.Dataset {
	t.Helper()
	ds, err := tcq.NewDataset(g.Initial, g.Options)
	must(t, g, err)
	return ds
}

// apply runs batches through any Apply-shaped door.
func apply(t testing.TB, g *Generation, batches []*tcq.Batch, do func(context.Context, *tcq.Batch) (tcq.ApplyResult, error)) {
	t.Helper()
	for _, b := range batches {
		_, err := do(context.Background(), b)
		must(t, g, err)
	}
}

// localViews stands the generation up every way one process can:
//
//	fresh      tcq.Build from scratch over the surviving edge sets
//	applied    the epoch-0 dataset with the history applied
//	loaded     half the history, SaveSnapshot, LoadSnapshot (kernels
//	           rebuilt lazily), the other half — asked through a pinned
//	           *tcq.Snapshot
//	recovered  InitStore at epoch 0, the history journaled, the process
//	           killed (no Close, no checkpoint), OpenStore's replay
func localViews(t testing.TB, g *Generation) []View {
	t.Helper()
	fresh, err := tcq.Build(g.Final, g.Options)
	must(t, g, err)
	views := []View{{"fresh", fresh}}

	if len(g.Batches) > 0 {
		ds := deploy(t, g)
		apply(t, g, g.Batches, ds.Apply)
		applied, err := ds.Open()
		must(t, g, err)
		views = append(views, View{"applied", applied})
	}

	half := len(g.Batches) / 2
	ds := deploy(t, g)
	apply(t, g, g.Batches[:half], ds.Apply)
	image := filepath.Join(t.TempDir(), "gen.tcsf")
	_, err = tcq.SaveSnapshot(image, ds.Snapshot())
	must(t, g, err)
	loaded, err := tcq.LoadSnapshot(image)
	must(t, g, err)
	t.Cleanup(func() { loaded.Close() })
	apply(t, g, g.Batches[half:], loaded.Apply)
	views = append(views, View{"loaded", loaded.Snapshot()})

	dir := filepath.Join(t.TempDir(), "store")
	must(t, g, tcq.InitStore(dir, deploy(t, g).Snapshot()))
	killed, _, err := tcq.OpenStore(dir, tcq.PersistOptions{CheckpointEvery: -1})
	must(t, g, err)
	t.Cleanup(func() { killed.Close() }) // the kill: its journal handle outlives the reopen
	apply(t, g, g.Batches, killed.Apply)
	recovered, info, err := tcq.OpenStore(dir, tcq.PersistOptions{})
	must(t, g, err)
	t.Cleanup(func() { recovered.Close() })
	if info.ReplayedRecords != len(g.Batches) || info.Epoch != killed.Epoch() || info.TornTail {
		t.Errorf("%s: recovery %+v, want %d records replayed to epoch %d", g.Name, info, len(g.Batches), killed.Epoch())
	}
	replayed, err := recovered.Open()
	must(t, g, err)
	return append(views, View{"recovered", replayed})
}

// served is what the loop reads off the servers it stood up, for the
// coverage floors no answer shows.
type served struct{ hits, retained, invalidated, remoteLegs uint64 }

func (s *served) add(srv *server.Server) {
	st := srv.Stats()
	s.hits += st.Cache.Hits
	s.retained += st.Cache.Retained
	s.invalidated += st.Cache.Invalidated
	for name, v := range st.Metrics {
		if strings.HasPrefix(name, "tc_leg_fanout_total") {
			s.remoteLegs += uint64(v)
		}
	}
}

// twice lists a server's facade under two names: the second pass is
// answered from the leg cache the first one filled.
func twice(name string, srv *server.Server) []View {
	return []View{{name, srv.Facade()}, {name + "+cache", srv.Facade()}}
}

// atEpoch0 is the generation before its history: what a deployment that
// has applied nothing yet must answer.
func atEpoch0(g *Generation) *Generation {
	before := *g
	before.Name, before.Final, before.Batches = g.Name+" at epoch 0", g.Initial, nil
	return &before
}

// servedViews deploys the epoch-0 dataset behind a server, checks it
// there — which fills the leg cache — and then applies the history, so
// the views answer the final generation from a cache holding retained,
// invalidated and new entries.
func servedViews(ctx context.Context, t testing.TB, tally *Tally, g *Generation, seen *served) []View {
	t.Helper()
	srv, err := server.NewDataset(deploy(t, g), server.Config{CacheCapacity: 256})
	must(t, g, err)
	t.Cleanup(func() { seen.add(srv); srv.Close() })
	views := twice("served", srv)
	if len(g.Batches) > 0 {
		if err := tally.Check(ctx, atEpoch0(g), views[:1]); err != nil {
			t.Error(err)
		}
		apply(t, g, g.Batches, srv.ApplyBatch)
	}
	return views
}

// clusterViews deploys the epoch-0 dataset on three members joined over
// httptest listeners and lists every member twice. The first batch
// reaches b and c before a, as in a fan-out still in flight: a, checked
// in between, pins epoch 0 and its peers must answer its legs from the
// generation they have already left. The rest of the history goes to a's
// /v1/update, which fans it out.
func clusterViews(ctx context.Context, t testing.TB, tally *Tally, g *Generation, seen *served) []View {
	t.Helper()
	ids := []string{"a", "b", "c"}
	var listeners []*httptest.Server
	var peers []cluster.Node
	for _, id := range ids {
		hs := httptest.NewUnstartedServer(nil) // its address exists before its handler does
		t.Cleanup(hs.Close)
		listeners = append(listeners, hs)
		peers = append(peers, cluster.Node{ID: id, URL: "http://" + hs.Listener.Addr().String()})
	}
	var members []*server.Server
	var views []View
	for i, id := range ids {
		coord, err := cluster.New(cluster.Config{NodeID: id, Peers: peers, Timeout: 10 * time.Second})
		must(t, g, err)
		srv, err := server.NewDataset(deploy(t, g), server.Config{CacheCapacity: 256, Cluster: coord})
		must(t, g, err)
		t.Cleanup(func() { seen.add(srv); srv.Close() })
		listeners[i].Config.Handler = srv.Handler()
		listeners[i].Start()
		members = append(members, srv)
		views = append(views, twice("cluster/"+id, srv)...)
	}
	if len(g.Batches) > 0 {
		apply(t, g, g.Batches[:1], members[1].ApplyBatch)
		apply(t, g, g.Batches[:1], members[2].ApplyBatch)
		if err := tally.Check(ctx, atEpoch0(g), []View{{"cluster/a behind", members[0].Facade()}}); err != nil {
			t.Error(err)
		}
		apply(t, g, g.Batches[:1], members[0].ApplyBatch)
	}
	for _, b := range g.Batches[min(1, len(g.Batches)):] {
		var req server.V1UpdateRequest
		for _, op := range b.Ops() {
			req.Ops = append(req.Ops, cluster.UpdateOp{Op: op.Kind.String(), Fragment: op.Fragment, From: op.From, To: op.To, Weight: op.Weight})
		}
		body, err := json.Marshal(req)
		must(t, g, err)
		resp, err := http.Post(peers[0].URL+"/v1/update", "application/json", bytes.NewReader(body))
		must(t, g, err)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /v1/update %s: status %d", g.Name, body, resp.StatusCode)
		}
	}
	return views
}

// scenario names one generation: New's arguments.
type scenario struct {
	seed  int64
	shape uint16
}

// corpus is the fixed loop's scenario list and the fuzz target's seeds:
// every topology × fragmenter under two seeds, with the problem, the
// MaxChains bound and the batch count rotating underneath, and the
// linear sweep — the one cut that is loosely connected by construction
// — under eight more.
func corpus() (out []scenario) {
	for seed := int64(1); seed <= 10; seed++ {
		for fi := range Fragmenters {
			for ti := range Topologies {
				if seed > 2 && fi != 0 {
					continue
				}
				k := len(out)
				problem, maxChains, batches := k%4/3, k/2%2, (k+int(seed))%4
				shape := ti + len(Topologies)*(fi+len(Fragmenters)*(problem+2*(maxChains+2*batches)))
				out = append(out, scenario{seed, uint16(shape)})
			}
		}
	}
	return out
}

// TestOracle is the fixed loop: every scenario of the corpus stood up
// every way the repository can, held to Dijkstra and to each other.
// Every second generation is also served, every eighth also clustered.
// It fails on any rule violation and on any lost coverage; what rule 5
// counts on cyclic generations it logs and ratchets (ROADMAP item 1
// makes that line an error).
func TestOracle(t *testing.T) {
	ctx := context.Background()
	var tally Tally
	var seen served
	loose, cyclic, orphaned := 0, 0, 0
	problems, fragmenters := map[string]int{}, map[string]int{}
	for i, sc := range corpus() {
		g, err := New(sc.seed, sc.shape)
		if err != nil {
			t.Fatal(err)
		}
		s := &scope{TB: t}
		views := localViews(s, g)
		if i%2 == 0 {
			views = append(views, servedViews(ctx, s, &tally, g, &seen)...)
		}
		if i%8 == 0 {
			views = append(views, clusterViews(ctx, s, &tally, g, &seen)...)
		}
		if err := tally.Check(ctx, g, views); err != nil {
			t.Error(err)
		}
		s.close()
		if g.Loose() {
			loose++
		} else {
			cyclic++
		}
		problems[g.Options.Problem.String()]++
		fragmenters[g.Fragmenter]++
		if slices.ContainsFunc(g.Sources, func(n int) bool { return len(g.Final.FragmentsOf(graph.NodeID(n))) == 0 }) {
			orphaned++
		}
	}
	sum := func(m map[string]int) (n int) {
		for _, v := range m {
			n += v
		}
		return n
	}
	inexact, missed := sum(tally.Inexact), sum(tally.Missed)
	t.Logf("oracle: %d configurations, %d checks over %d generations (%d loosely connected, %d cyclic, %d with an orphaned node) in %d views; "+
		"on cyclic generations %d inexact costs and %d reachable pairs answered Reachable=false, Truncated=false (%d more sanctioned by Truncated); "+
		"%d cache hits (%d entries retained, %d invalidated), %d remote legs",
		len(tally.Configs), tally.Checks, loose+cyclic, loose, cyclic, orphaned, len(tally.Views),
		inexact, missed, tally.Truncated, seen.hits, seen.retained, seen.invalidated, seen.remoteLegs)

	if loose < 40 || cyclic < 20 || tally.Checks < 30000 || orphaned == 0 || tally.Truncated == 0 ||
		len(problems) < 2 || len(fragmenters) < len(Fragmenters) {
		t.Errorf("oracle lost its coverage: %d loosely connected and %d cyclic generations, %d checks, %d orphaned, %d truncated, problems %v, fragmenters %v",
			loose, cyclic, tally.Checks, orphaned, tally.Truncated, problems, fragmenters)
	}
	for _, view := range []string{"fresh", "applied", "loaded", "recovered", "served", "served+cache", "cluster/a behind", "cluster/a", "cluster/b+cache", "cluster/c"} {
		if tally.Views[view] == 0 {
			t.Errorf("oracle lost view %s: %v", view, tally.Views)
		}
	}
	// 12 legal (mode, engine) pairs, forced dijkstra among them, and the
	// routes; the planner chose by mode alone, so auto resolved to exactly
	// the kernels and never to dijkstra; the servers' caches hit, kept and
	// dropped entries, and legs crossed the wire.
	planned := slices.Sorted(maps.Keys(tally.Planned))
	if len(tally.Configs) < 13 || tally.Configs["cost/dijkstra"] == 0 ||
		!slices.Equal(planned, []string{"connectivity/bitset", "cost/dense", "pipelined/dense"}) ||
		seen.hits == 0 || seen.retained == 0 || seen.invalidated == 0 || seen.remoteLegs == 0 {
		t.Errorf("oracle lost a configuration: asked %v, planner chose %v, servers saw %+v", tally.Configs, tally.Planned, seen)
	}
	// Rule 5's ratchet: the corpus is fixed, so what it counts on cyclic
	// generations is a constant of the code under test. It may only go
	// down; ROADMAP item 1 sets both bounds to zero and drops the loop
	// below, which until then keeps both of that item's shapes showing
	// both of its forms.
	const knownInexact, knownMissed = 190, 1200
	if inexact > knownInexact || missed > knownMissed {
		t.Errorf("cyclic generations got worse: %d inexact and %d missed answers, at most %d and %d known", inexact, missed, knownInexact, knownMissed)
	}
	for _, shape := range []string{"figure-eight", "excursion"} {
		if tally.Inexact[shape] == 0 || tally.Missed[shape] == 0 {
			t.Errorf("%s generations show %d inexact and %d missed answers, want both", shape, tally.Inexact[shape], tally.Missed[shape])
		}
	}
}

// FuzzOracle checks one generated generation over the in-process views.
// It starts from every fifth scenario of the fixed loop, which walks
// through the fragmenters and topologies; a plain go test runs the
// seeds, and TestOracle has just run all of them.
func FuzzOracle(f *testing.F) {
	for i, sc := range corpus() {
		if i%5 == 0 {
			f.Add(sc.seed, sc.shape)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint16) {
		g, err := New(seed, shape)
		if err != nil {
			t.Skip(err) // a cut the fragmenter refuses
		}
		if err := new(Tally).Check(context.Background(), g, localViews(t, g)); err != nil {
			t.Fatal(err)
		}
	})
}
