// Package oracle is the repository's one differential oracle: a seeded
// generator of generations (a graph, its fragmentation, an update
// history, a block of queries) and a checker that holds every way of
// standing such a generation up — a View — to Dijkstra on the
// unfragmented graph and to every other view.
//
// The checker knows the system only through the door every deployment
// has, Query(ctx, tcq.Request): a fresh tcq.Client, a dataset after its
// batches, a loaded TCSF image, a journal-recovered store, a server's
// facade with a warm leg cache and a cluster member are all just
// Queriers. It asks every (mode, engine) combination and lets the
// planner say which are legal, so an engine added to the facade joins
// the loop unasked. A new way of standing a generation up (a fault
// script, a column codec) is one more View, not one more generator.
//
// The rules, per answer:
//
//  1. no phantom Reachable and no cost below Dijkstra's, on any
//     generation;
//  2. exact and complete on loosely connected generations (§2.1);
//  3. every configuration of a view agrees with the others;
//  4. the same configuration on two views returns the identical
//     tcq.Answer — bit-identical cost, chain, truncation flag and
//     accounting; everything but the Elapsed fields;
//  5. Truncated is the only sanctioned false negative. On cyclic
//     generations the unsanctioned ones are counted (Tally.Inexact,
//     Tally.Missed), not failed: ROADMAP item 1 turns that count into
//     an error.
//
// Views that also offer QueryPath have their routes validated on the
// generation's graph and judged by rules 1, 2 and 5.
package oracle

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"

	"repro/internal/fragment"
	"repro/internal/graph"
	"repro/pkg/tcq"
)

// Generation is one state of one graph to hold deployments to: the
// fragmentation at epoch 0, the batches applied since, and the
// fragmentation a from-scratch build of the surviving edges gives —
// whose base graph is the ground truth.
type Generation struct {
	// Name says which scenario this is, for failure messages.
	Name string
	// Fragmenter names the shape of the cut, for the tally.
	Fragmenter string
	// Options are the build options every view deploys with.
	Options tcq.BuildOptions
	// Initial is the deployment at epoch 0 and Batches its update
	// history, in order.
	Initial *fragment.Fragmentation
	Batches []*tcq.Batch
	// Final is fragment.New over the edge sets the history leaves, on a
	// graph of its own.
	Final *fragment.Fragmentation
	// Sources × Targets is the block every configuration is asked.
	Sources, Targets []int
}

// Loose reports whether the generation is loosely connected — the
// paper's precondition for exact answers.
func (g *Generation) Loose() bool { return g.Final.FragmentationGraph().IsLooselyConnected() }

// Querier is the door every deployment has. A Querier that also has
// tcq.Client's QueryPath gets its routes checked.
type Querier interface {
	Query(ctx context.Context, req tcq.Request) (*tcq.Result, error)
}

// View is one way of standing a generation up, under the name two
// generations' tallies share. Listing one Querier twice asks it twice:
// on a server the second pass is answered from the leg cache, and rule
// 4 holds it to the first.
type View struct {
	Name string
	Q    Querier
}

// Tally is what a run of checks adds up, for the caller's coverage
// floors: how much was checked, where, and what rule 5 counted.
type Tally struct {
	// Checks counts judged answers; Views and Configs split them by view
	// name and by "mode/engine"; Planned counts, by "mode/engine", what
	// the planner resolved EngineAuto to.
	Checks                  int
	Views, Configs, Planned map[string]int
	// Inexact and Missed count, by fragmenter, the cyclic generations'
	// too-high costs and Reachable=false answers for reachable pairs
	// with Truncated unset; Truncated counts the sanctioned ones.
	Inexact, Missed map[string]int
	Truncated       int
}

func bump(m *map[string]int, k string, n int) {
	if *m == nil {
		*m = make(map[string]int)
	}
	(*m)[k] += n
}

func same(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

type pair [2]int

// judge applies rules 1, 2 and 5 to one answer (cost meaningful only if
// costed) and reports a violation.
func (t *Tally) judge(g *Generation, loose bool, a tcq.Answer, costed bool, truth float64, reachable bool) error {
	costed = costed && a.Reachable
	t.Checks++
	switch {
	case a.Reachable && !reachable:
		return fmt.Errorf("phantom Reachable (cost %v), Dijkstra reaches nothing", a.Cost)
	case costed && a.Cost < truth && !same(a.Cost, truth):
		return fmt.Errorf("cost %v undershoots Dijkstra's %v", a.Cost, truth)
	case loose && a.Reachable != reachable:
		return fmt.Errorf("loosely connected generation answers Reachable=%v, Dijkstra %v", a.Reachable, reachable)
	case loose && costed && !same(a.Cost, truth):
		return fmt.Errorf("loosely connected generation answers cost %v, Dijkstra %v", a.Cost, truth)
	case a.Reachable == reachable && (!costed || same(a.Cost, truth)):
	case a.Truncated:
		t.Truncated++
	case !a.Reachable:
		bump(&t.Missed, g.Fragmenter, 1)
	default:
		bump(&t.Inexact, g.Fragmenter, 1)
	}
	return nil
}

// identity is what rule 4 compares: the answer without its clocks, the
// per-site work reduced to leg counts.
func identity(a tcq.Answer) any {
	legs := make(map[int]int, len(a.PerSite))
	for site, w := range a.PerSite {
		legs[site] = w.Legs
	}
	a.Elapsed, a.PerSite = 0, nil
	return struct {
		tcq.Answer
		Legs map[int]int
	}{a, legs}
}

// Check asks every view every configuration over the generation's block
// and returns every rule violation, joined; nil means the views are
// correct and indistinguishable.
func (t *Tally) Check(ctx context.Context, g *Generation, views []View) error {
	base, loose := g.Final.Base(), g.Loose()
	want := make(map[pair]float64) // absent = unreachable
	for _, s := range g.Sources {
		dist, _ := base.ShortestPaths(graph.NodeID(s))
		for _, d := range g.Targets {
			if c, ok := dist[graph.NodeID(d)]; ok {
				want[pair{s, d}] = c
			}
		}
	}
	var errs []error
	type asked struct {
		cfg string
		p   pair
	}
	answered := make(map[string]bool) // the configurations the first view's planner accepted
	firstView := make(map[asked]any)  // rule 4: the first view's identity of each answer
	for vi, v := range views {
		fail := func(cfg, format string, args ...any) {
			errs = append(errs, fmt.Errorf("%s: view %s %s: %s", g.Name, v.Name, cfg, fmt.Sprintf(format, args...)))
		}
		first := make(map[pair]tcq.Answer) // rule 3: the view's first answer, and its first costed one
		firstCost := make(map[pair]tcq.Answer)
		hold := func(cfg string, a tcq.Answer, costed bool) {
			p := pair{a.Source, a.Target}
			truth, reachable := want[p]
			if err := t.judge(g, loose, a, costed, truth, reachable); err != nil {
				fail(cfg, "%v: %v", p, err)
			}
			if ref, seen := first[p]; !seen {
				first[p] = a
			} else if ref.Reachable != a.Reachable {
				fail(cfg, "%v: Reachable=%v, the view's first configuration said %v", p, a.Reachable, ref.Reachable)
			}
			if !costed {
				return
			}
			if ref, seen := firstCost[p]; !seen {
				firstCost[p] = a
			} else if a.Reachable && !same(a.Cost, ref.Cost) {
				fail(cfg, "%v: cost %v, the view's first cost configuration said %v", p, a.Cost, ref.Cost)
			}
		}
		for mode := tcq.ModeConnectivity; mode.Valid(); mode++ {
			for engine := tcq.EngineAuto; engine.Valid(); engine++ {
				cfg := mode.String() + "/" + engine.String()
				res, err := v.Q.Query(ctx, tcq.Request{Sources: g.Sources, Targets: g.Targets, Mode: mode, Engine: engine})
				// The planner's table, not a copy of it, says what is legal —
				// and it must say the same on every view.
				refused := errors.Is(err, tcq.ErrEngineMismatch) || errors.Is(err, tcq.ErrProblemMismatch)
				if vi == 0 {
					answered[cfg] = !refused
				} else if answered[cfg] == refused {
					fail(cfg, "refused = %v (%v), unlike on view %s", refused, err, views[0].Name)
				}
				if refused {
					continue
				}
				if err != nil {
					fail(cfg, "%v", err)
					continue
				}
				if ex := res.Explain; ex.Engine == tcq.EngineAuto || ex.Forced != (engine != tcq.EngineAuto) || ex.Reason == "" {
					fail(cfg, "explain %+v does not say which engine answered, whether it was forced, and why", ex)
				} else if !ex.Forced {
					bump(&t.Planned, ex.Canonical(), 1)
				}
				bump(&t.Views, v.Name, len(res.Answers))
				bump(&t.Configs, cfg, len(res.Answers))
				for _, a := range res.Answers {
					hold(cfg, a, mode != tcq.ModeConnectivity)
					key, id := asked{cfg, pair{a.Source, a.Target}}, identity(a)
					if ref, seen := firstView[key]; !seen {
						firstView[key] = id
					} else if !reflect.DeepEqual(ref, id) {
						fail(cfg, "%v: answers %+v, view %s answered %+v", key.p, id, views[0].Name, ref)
					}
				}
			}
		}
		// Routes are one more costed configuration of a view that has them.
		router, ok := v.Q.(interface {
			QueryPath(ctx context.Context, source, target int) (tcq.Answer, *tcq.Route, error)
		})
		if !ok {
			continue
		}
		for p, ref := range firstCost { // empty where the planner refused every cost configuration
			a, route, err := router.QueryPath(ctx, p[0], p[1])
			switch {
			case errors.Is(err, tcq.ErrNoRoute):
				a = tcq.Answer{Source: p[0], Target: p[1], Cost: math.Inf(1), Truncated: ref.Truncated}
			case err != nil:
				fail("route", "%v: %v", p, err)
				continue
			case route.Cost != a.Cost || int(route.Nodes[0]) != p[0] || int(route.Nodes[len(route.Nodes)-1]) != p[1]:
				fail("route", "%v: route %+v does not realise the answer %+v", p, route, a)
			default:
				if err := route.Validate(base); err != nil {
					fail("route", "%v: %v", p, err)
				}
			}
			bump(&t.Configs, "route", 1)
			hold("route", a, true)
		}
	}
	return errors.Join(errs...)
}
