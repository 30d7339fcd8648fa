package tcq

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fragment/linear"
	"repro/internal/gen"
	"repro/internal/relation"
)

// cancelClient builds (once, shared across the cancellation tests —
// the 128x128 preprocessing is the expensive part) the grid deployment
// the cancellation scenario specifies: two ~8k-node fragments, large
// enough that every engine's fixpoint runs long past the cancellation
// point. The shared client is read-only under these tests.
var cancelShared struct {
	once sync.Once
	c    *Client
	err  error
}

func cancelClient(t *testing.T) *Client {
	t.Helper()
	cancelShared.once.Do(func() {
		g, err := gen.Grid(gen.GridConfig{Width: 128, Height: 128, DiagonalProb: 0.1, Seed: 1})
		if err != nil {
			cancelShared.err = err
			return
		}
		res, err := linear.Fragment(g, linear.Options{NumFragments: 2})
		if err != nil {
			cancelShared.err = err
			return
		}
		cancelShared.c, cancelShared.err = Build(res.Fragmentation, BuildOptions{})
	})
	if cancelShared.err != nil {
		t.Fatal(cancelShared.err)
	}
	return cancelShared.c
}

// uninterruptibleUnit times, on this machine and under its present
// load, the longest stretch any engine runs between context checks:
// the relational engines' whole-relation aggregation of a site's edges
// ahead of their first round (tc.normalizeEdges), which a query runs on
// both sites at once. Two goroutines each box the grid into a relation
// and aggregate it — the same work in the same shape, so the race
// detector and a busy box stretch this and a cancellation equally.
func uninterruptibleUnit(t *testing.T, c *Client) time.Duration {
	t.Helper()
	g := c.Store().Fragmentation().Base()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := relation.FromGraph(g).MinBy("cost", "src", "dst"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// TestCancelPromptness cancels queries mid-fixpoint and asserts the
// facade returns ErrCanceled promptly, for every engine family
// (per-entry dijkstra, relational fixpoint, bitset levels, dense
// rounds, pipelined walk). Promptly means within a few non-interruptible
// units as measured right before each case, not within a wall-clock
// constant: a cancellation costs about one unit, with or without the
// race detector and whatever else the machine is running.
func TestCancelPromptness(t *testing.T) {
	c := cancelClient(t)
	corner := 128*128 - 1
	cases := []struct {
		name string
		req  Request
	}{
		{"cost seminaive", Request{Sources: []int{0}, Targets: []int{corner}, Mode: ModeCost, Engine: EngineSemiNaive}},
		{"cost dense", Request{Sources: []int{0}, Targets: []int{corner}, Mode: ModeCost, Engine: EngineDense}},
		{"cost dijkstra multi-entry", Request{Sources: entries(64), Targets: []int{corner}, Mode: ModeCost, Engine: EngineDijkstra}},
		{"connectivity bitset", Request{Sources: []int{0}, Targets: []int{corner}, Engine: EngineBitset}},
		{"pipelined dense", Request{Sources: []int{0}, Targets: []int{corner}, Mode: ModePipelined, Engine: EngineDense}},
		{"cost auto", Request{Sources: []int{0}, Targets: []int{corner}, Mode: ModeCost}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bound := 4 * uninterruptibleUnit(t, c)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := c.Query(ctx, tc.req)
				done <- err
			}()
			// Let the query get into its fixpoint, then pull the plug.
			time.Sleep(2 * time.Millisecond)
			canceledAt := time.Now()
			cancel()
			select {
			case err := <-done:
				// The query may legitimately have finished before the
				// cancel landed; only a late *canceled* return is a bug.
				if err == nil {
					t.Skip("query finished before cancellation landed")
				}
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("got %v, want ErrCanceled", err)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%v must also wrap context.Canceled", err)
				}
				if d := time.Since(canceledAt); d > bound {
					t.Fatalf("cancellation took %v, want <%v", d, bound)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("canceled query did not return within 5s")
			}
		})
	}
}

// TestCancelPreCanceled: a context canceled before the call must be
// observed before any work starts.
func TestCancelPreCanceled(t *testing.T) {
	c := cancelClient(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := c.Query(ctx, Request{Sources: []int{0}, Targets: []int{128*128 - 1}, Mode: ModeCost})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("got %v, want ErrCanceled", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("pre-canceled query took %v, want <100ms", d)
	}
	// QueryBatch reports the cancellation and the empty prefix.
	if _, err := c.QueryBatch(ctx, []Request{{Sources: []int{0}, Targets: []int{1}}}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("batch got %v, want ErrCanceled", err)
	}
}

// TestCancelLeaksNoGoroutines runs a burst of canceled queries and
// asserts the goroutine count settles back to its baseline — canceled
// per-site workers and kernel pools must all exit.
func TestCancelLeaksNoGoroutines(t *testing.T) {
	c := cancelClient(t)
	corner := 128*128 - 1
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := c.Query(ctx, Request{Sources: []int{0}, Targets: []int{corner}, Mode: ModeCost, Engine: EngineSemiNaive})
		cancel()
		if err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("run %d: %v", i, err)
		}
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run %d: %v must wrap context.DeadlineExceeded", i, err)
		}
	}
	// Give exiting goroutines a moment, then compare against the
	// baseline with a small tolerance for runtime background noise.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after canceled queries", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
