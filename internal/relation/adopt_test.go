package relation

import "testing"

func TestAdopt(t *testing.T) {
	rows := []Tuple{{int64(7), int64(2), 1.0}, {int64(8), int64(2), 2.0}, {int64(7), int64(5), 3.0}}
	r, err := Adopt(rows, "src", "dst", "cost")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 || r.Arity() != 3 {
		t.Fatalf("Len %d, Arity %d; want 3, 3", r.Len(), r.Arity())
	}
	if &r.Tuples()[0] != &rows[0] {
		t.Error("rows were copied, not adopted")
	}
	if empty, err := Adopt(nil, "a"); err != nil || empty.Len() != 0 {
		t.Errorf("empty table: %v, %v", empty, err)
	}
}

// TestAdoptRefuses: a row whose arity is not the schema's.
func TestAdoptRefuses(t *testing.T) {
	good := Tuple{int64(0), int64(3), 1.0}
	for name, rows := range map[string][]Tuple{
		"arity 2": {good, {int64(0), int64(3)}},
		"arity 4": {{int64(0), int64(3), 1.0, int64(9)}},
	} {
		if r, err := Adopt(rows, "src", "dst", "cost"); err == nil {
			t.Errorf("%s: accepted as %v", name, r)
		}
	}
}
