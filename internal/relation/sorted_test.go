package relation

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestNewSortedByAdoptsAndMarks(t *testing.T) {
	rows := []Tuple{{int64(7), int64(2), 1.0}, {int64(8), int64(2), 2.0}, {int64(7), int64(5), 3.0}}
	r, err := NewSortedBy(rows, 1, "src", "dst", "cost")
	if err != nil {
		t.Fatal(err)
	}
	if r.SortedBy() != 1 || r.Len() != 3 {
		t.Fatalf("SortedBy %d, Len %d; want 1, 3", r.SortedBy(), r.Len())
	}
	if &r.Tuples()[0] != &rows[0] {
		t.Error("rows were copied, not adopted")
	}
	for v, want := range map[int64][2]int{1: {0, 0}, 2: {0, 2}, 3: {2, 2}, 5: {2, 3}, 6: {3, 3},
		math.MinInt64: {0, 0}, math.MaxInt64: {3, 3}} {
		if lo, hi := r.Range(v); [2]int{lo, hi} != want {
			t.Errorf("Range(%d) = [%d, %d), want %v", v, lo, hi, want)
		}
	}
	if empty, err := NewSortedBy(nil, 0, "a"); err != nil || empty.SortedBy() != 0 {
		t.Errorf("empty table: %v, %v", empty, err)
	} else if lo, hi := empty.Range(4); lo != 0 || hi != 0 {
		t.Errorf("empty Range = [%d, %d)", lo, hi)
	}
	if c := r.Clone(); c.SortedBy() != 1 {
		t.Error("Clone dropped the mark")
	}
}

// TestNewSortedByRefuses: the rows the constructor must not mark.
func TestNewSortedByRefuses(t *testing.T) {
	good := Tuple{int64(0), int64(3), 1.0}
	for name, tc := range map[string]struct {
		col  int
		rows []Tuple
	}{
		"out of order":        {1, []Tuple{good, {int64(0), int64(2), 1.0}}},
		"string in sort col":  {1, []Tuple{good, {int64(0), "4", 1.0}}},
		"float in sort col":   {1, []Tuple{{int64(0), 3.0, 1.0}}},
		"arity 2":             {1, []Tuple{good, {int64(0), int64(3)}}},
		"arity 4":             {1, []Tuple{{int64(0), int64(3), 1.0, int64(9)}}},
		"column past schema":  {3, []Tuple{good}},
		"column before first": {-1, []Tuple{good}},
	} {
		if r, err := NewSortedBy(tc.rows, tc.col, "src", "dst", "cost"); err == nil {
			t.Errorf("%s: accepted as %v", name, r)
		}
	}
}

// TestSortedMarkClearedByMutation: whatever appends to or reorders the
// tuples in place leaves an unmarked relation, and Range refuses it.
func TestSortedMarkClearedByMutation(t *testing.T) {
	fresh := func() *Relation {
		r, err := NewSortedBy([]Tuple{{int64(1), "b"}, {int64(4), "a"}}, 0, "k", "v")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for name, mutate := range map[string]func(*Relation){
		"Insert": func(r *Relation) { r.MustInsert(Tuple{int64(0), "c"}) },
		"Extend": func(r *Relation) { _ = r.Extend(fresh()) },
		"Sort":   func(r *Relation) { r.Sort() },
	} {
		r := fresh()
		mutate(r)
		if r.SortedBy() != -1 {
			t.Errorf("%s kept the mark", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Range after %s did not panic", name)
				}
			}()
			r.Range(1)
		}()
	}
}

// TestRangeMatchesScan: on random sorted columns with runs of equal
// values — short runs, and on odd trials runs of up to a few hundred
// rows that the galloping end search has to cross — Range is the span
// a linear scan finds.
func TestRangeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var rows []Tuple
		v := int64(rng.Intn(5) - 10)
		size, step := 40, 3
		if trial%2 == 1 {
			size, step = 600, 60
		}
		for n := rng.Intn(size); len(rows) < n; {
			if rng.Intn(step) == 0 {
				v += int64(rng.Intn(4))
			}
			rows = append(rows, Tuple{v})
		}
		r, err := NewSortedBy(rows, 0, "k")
		if err != nil {
			t.Fatal(err)
		}
		for probe := int64(-12); probe < 40; probe++ {
			lo, hi := r.Range(probe)
			for i, row := range rows {
				if in := i >= lo && i < hi; in != (row[0] == Value(probe)) {
					t.Fatalf("trial %d: Range(%d) = [%d, %d) but row %d is %v", trial, probe, lo, hi, i, row)
				}
			}
		}
	}
}

// TestRangeConcurrentReaders is for -race: Range reads and writes
// nothing but the tuples.
func TestRangeConcurrentReaders(t *testing.T) {
	rows := make([]Tuple, 1000)
	for i := range rows {
		rows[i] = Tuple{int64(i / 10)}
	}
	r, err := NewSortedBy(rows, 0, "k")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int64(g); v < 100; v += 8 {
				if lo, hi := r.Range(v); lo != int(v)*10 || hi != lo+10 {
					t.Errorf("Range(%d) = [%d, %d)", v, lo, hi)
				}
			}
		}()
	}
	wg.Wait()
}
