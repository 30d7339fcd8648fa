package tcq

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// gridDataset builds a fragmented grid deployment as a Dataset.
func gridDataset(t *testing.T, w, h, frags int) *Dataset {
	t.Helper()
	c, _ := gridClient(t, w, h, frags, BuildOptions{})
	return c.Dataset()
}

func TestBatchBuilder(t *testing.T) {
	var b Batch
	got := b.Insert(0, 1, 2, 1.5).Delete(1, 3, 4, 2).Add(Insert(2, 5, 6, 0.5))
	if got != &b {
		t.Fatal("builder must chain on the receiver")
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	ops := b.Ops()
	if ops[0].Kind != OpInsert || ops[1].Kind != OpDelete || ops[1].Fragment != 1 || ops[2].Weight != 0.5 {
		t.Fatalf("ops = %+v", ops)
	}
	// Ops returns a copy: mutating it must not affect the batch.
	ops[0].Fragment = 99
	if b.Ops()[0].Fragment != 0 {
		t.Fatal("Ops() leaked the internal slice")
	}
}

// TestSnapshotIsolation: a pinned snapshot keeps answering at its own
// epoch while batches move the dataset on — the copy-on-write contract
// of the mutation API.
func TestSnapshotIsolation(t *testing.T) {
	ds := gridDataset(t, 6, 6, 2)
	ctx := context.Background()
	snap := ds.Snapshot()
	before, err := snap.Cost(ctx, 0, 35)
	if err != nil {
		t.Fatal(err)
	}

	var b Batch
	b.Insert(0, 0, 35, 0.25)
	res, err := ds.Apply(ctx, &b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || ds.Epoch() != 1 {
		t.Fatalf("epoch = %d/%d, want 1/1", res.Epoch, ds.Epoch())
	}
	if res.Stats.Ops != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}

	// The pinned snapshot still answers the pre-batch cost…
	still, err := snap.Cost(ctx, 0, 35)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(still-before) > 1e-9 {
		t.Fatalf("pinned snapshot moved: %v, want %v", still, before)
	}
	if snap.Epoch() != 0 {
		t.Fatalf("pinned snapshot epoch = %d, want 0", snap.Epoch())
	}
	// …while a fresh snapshot sees the shortcut.
	after, err := ds.Snapshot().Cost(ctx, 0, 35)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after-0.25) > 1e-9 {
		t.Fatalf("fresh snapshot cost = %v, want 0.25", after)
	}
}

// TestApplyAtomicThroughFacade: one bad op refuses the whole batch
// with per-op typed errors and applies nothing.
func TestApplyAtomicThroughFacade(t *testing.T) {
	ds := gridDataset(t, 6, 6, 2)
	var b Batch
	b.Insert(0, 0, 1, 1).Insert(0, 0, 999999, 1).Delete(9, 0, 1, 1)
	_, err := ds.Apply(context.Background(), &b)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("got %v, want *BatchError", err)
	}
	if len(be.Ops) != 2 || be.Ops[0].Index != 1 || be.Ops[1].Index != 2 {
		t.Fatalf("op errors = %+v", be.Ops)
	}
	if !errors.Is(err, ErrUnknownNode) || !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("batch error must wrap both refusal sentinels: %v", err)
	}
	if ds.Epoch() != 0 {
		t.Fatalf("epoch = %d after refused batch, want 0", ds.Epoch())
	}
	if _, err := ds.Apply(context.Background(), nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("nil batch: got %v, want ErrEmptyBatch", err)
	}
	if _, err := ds.Apply(context.Background(), &Batch{}); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("empty batch: got %v, want ErrEmptyBatch", err)
	}
}

// TestOnApplyOrdering: subscribers see every batch exactly once, in
// epoch order, with the incremental stats attached.
func TestOnApplyOrdering(t *testing.T) {
	ds := gridDataset(t, 6, 6, 2)
	var mu sync.Mutex
	var epochs []uint64
	ds.OnApply(func(r ApplyResult) {
		mu.Lock()
		epochs = append(epochs, r.Epoch)
		mu.Unlock()
	})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		var b Batch
		b.Insert(0, 0, 1, 5).Delete(0, 0, 1, 5)
		if _, err := ds.Apply(ctx, &b); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(epochs) != 3 || epochs[0] != 1 || epochs[1] != 2 || epochs[2] != 3 {
		t.Fatalf("subscriber saw epochs %v, want [1 2 3]", epochs)
	}
}

// TestOnApplyUnsubscribe: a detached subscriber stops receiving
// batches (and stops being retained by the dataset).
func TestOnApplyUnsubscribe(t *testing.T) {
	ds := gridDataset(t, 6, 6, 2)
	var calls atomic.Int64
	unsubscribe := ds.OnApply(func(ApplyResult) { calls.Add(1) })
	ctx := context.Background()
	apply := func() {
		var b Batch
		b.Insert(0, 0, 1, 5).Delete(0, 0, 1, 5)
		if _, err := ds.Apply(ctx, &b); err != nil {
			t.Fatal(err)
		}
	}
	apply()
	unsubscribe()
	unsubscribe() // idempotent
	apply()
	if got := calls.Load(); got != 1 {
		t.Fatalf("subscriber called %d times, want 1 (unsubscribed before the second batch)", got)
	}
}

// TestReadersNeverBlockOnWriters: sustained batches and concurrent
// queries interleave with no reader lock at all — every query pins a
// snapshot and must answer exactly (the inserted shortcut edges are
// heavy, so the optimum is invariant across every epoch). Run with
// -race in CI.
func TestReadersNeverBlockOnWriters(t *testing.T) {
	c, _ := gridClient(t, 8, 8, 2, BuildOptions{})
	ds := c.Dataset()
	ctx := context.Background()
	want, err := c.Cost(ctx, 0, 63) // before any writer: the batches below never move it
	if err != nil {
		t.Fatal(err)
	}

	var wrote atomic.Int64
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b Batch
			b.Insert(0, 0, 63, 1e9).Delete(0, 0, 63, 1e9)
			if _, err := ds.Apply(ctx, &b); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			wrote.Add(1)
		}
	}()

	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 20; i++ {
				got, err := c.Cost(ctx, 0, 63)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if math.Abs(got-want) > 1e-9 {
					t.Errorf("reader saw cost %v mid-update, want %v", got, want)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if wrote.Load() == 0 {
		t.Fatal("writer never applied a batch")
	}
}

// TestApplyBesideQueryPath is for -race: route reconstruction searches
// the pinned snapshot's base graph while every Apply clones that very
// graph (graph.CloneShared) for the next generation. The clone may not
// write anything a search reads, and every route stays a valid path of
// the optimal cost.
func TestApplyBesideQueryPath(t *testing.T) {
	c, g := gridClient(t, 8, 8, 2, BuildOptions{})
	ds := c.Dataset()
	ctx := context.Background()
	want, err := c.Cost(ctx, 0, 63) // before any writer: the batches below never move it
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b Batch
			b.Insert(0, 0, 63, 1e9).Delete(0, 0, 63, 1e9)
			if _, err := ds.Apply(ctx, &b); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 20; i++ {
				ans, route, err := c.QueryPath(ctx, 0, 63)
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if err := route.Validate(g); err != nil || math.Abs(ans.Cost-want) > 1e-9 {
					t.Errorf("reader: cost %v (want %v), route %v: %v", ans.Cost, want, route.Nodes, err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
