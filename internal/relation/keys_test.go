package relation

import "testing"

// TestAppendKeyMatchesKey: the append encoder and Key produce
// byte-identical encodings for every supported type.
func TestAppendKeyMatchesKey(t *testing.T) {
	tuples := []Tuple{
		{int64(1), "x", 3.5, true},
		{int64(-42)},
		{""},
		{"1", int64(1)}, // must not collide with {int64(1), "1"}
		{false, 0.0},
	}
	for _, tu := range tuples {
		if got := string(tu.AppendKey(nil)); got != tu.Key() {
			t.Errorf("AppendKey(%v) = %q, Key = %q", tu, got, tu.Key())
		}
	}
	if (Tuple{"1", int64(1)}).Key() == (Tuple{int64(1), "1"}).Key() {
		t.Error("type prefixes failed to separate string and int encodings")
	}
}

// TestDedupFilterExtend: Filter is Distinct+Difference in one pass and
// Extend appends in place, together reproducing the semi-naive delta
// step.
func TestDedupFilterExtend(t *testing.T) {
	d := NewDedup()
	a := New("x")
	a.MustInsert(Tuple{int64(1)})
	a.MustInsert(Tuple{int64(2)})
	a.MustInsert(Tuple{int64(1)}) // duplicate inside the batch
	first := d.Filter(a)
	if first.Len() != 2 || d.Len() != 2 {
		t.Fatalf("first filter: %d tuples, %d recorded; want 2, 2", first.Len(), d.Len())
	}
	b := New("x")
	b.MustInsert(Tuple{int64(2)}) // already known
	b.MustInsert(Tuple{int64(3)}) // new
	delta := d.Filter(b)
	if delta.Len() != 1 || delta.Tuples()[0][0] != int64(3) {
		t.Fatalf("second filter = %v, want just 3", delta)
	}
	if d.Len() != 3 {
		t.Errorf("recorded %d tuples, want 3", d.Len())
	}
	if err := first.Extend(delta); err != nil {
		t.Fatal(err)
	}
	if first.Len() != 3 {
		t.Errorf("extended relation has %d tuples, want 3", first.Len())
	}
	bad := New("y")
	if err := first.Extend(bad); err == nil {
		t.Error("schema mismatch accepted")
	}
}

// TestDedupAdd: Add reports first-sightings exactly once.
func TestDedupAdd(t *testing.T) {
	d := NewDedup()
	if !d.Add(Tuple{int64(1), "a"}) {
		t.Error("first Add returned false")
	}
	if d.Add(Tuple{int64(1), "a"}) {
		t.Error("second Add returned true")
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
}

// TestDistinctSharesTuples: the rewritten operators share tuple
// storage rather than deep-copying (tuples are immutable), halving the
// allocations of the delta loops. Sharing is observable via Len-only
// behaviour, so just pin the allocation ceiling.
func TestDistinctSharesTuples(t *testing.T) {
	r := New("a", "b")
	for i := int64(0); i < 256; i++ {
		r.MustInsert(Tuple{i % 8, i % 4})
	}
	avg := testing.AllocsPerRun(20, func() {
		r.Distinct()
	})
	// 256 tuples, 32 distinct: the old copy-per-tuple implementation
	// allocated ≥ 256; the rewrite allocates the seen-map, its 32 stored
	// keys and the output slice only.
	if avg > 64 {
		t.Errorf("Distinct allocates %.1f/op, want the shared-tuple rewrite (< 64)", avg)
	}
}
