package relation

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func edgeRel(edges ...[3]int64) *Relation {
	r := New("src", "dst", "cost")
	for _, e := range edges {
		r.MustInsert(Tuple{e[0], e[1], float64(e[2])})
	}
	return r
}

func TestNewPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		schema []string
	}{
		{"empty", nil},
		{"duplicate", []string{"a", "a"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", tc.schema)
				}
			}()
			New(tc.schema...)
		})
	}
}

func TestInsertValidation(t *testing.T) {
	r := New("a", "b")
	if err := r.Insert(Tuple{int64(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := r.Insert(Tuple{int64(1), []int{2}}); err == nil {
		t.Error("unsupported type accepted")
	}
	if err := r.Insert(Tuple{int64(1), "x"}); err != nil {
		t.Errorf("valid insert rejected: %v", err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestInsertCopiesTuple(t *testing.T) {
	r := New("a")
	src := Tuple{int64(1)}
	r.MustInsert(src)
	src[0] = int64(99)
	if got := r.Tuples()[0][0]; got != int64(1) {
		t.Errorf("relation aliased caller tuple: got %v", got)
	}
}

func TestSchemaIndexOfAndEqual(t *testing.T) {
	s := Schema{"x", "y"}
	if s.IndexOf("y") != 1 || s.IndexOf("z") != -1 {
		t.Error("IndexOf wrong")
	}
	if !s.Equal(Schema{"x", "y"}) || s.Equal(Schema{"y", "x"}) || s.Equal(Schema{"x"}) {
		t.Error("Equal wrong")
	}
}

func TestSelectEq(t *testing.T) {
	r := edgeRel([3]int64{1, 2, 5}, [3]int64{2, 3, 5}, [3]int64{1, 3, 9})
	got, err := r.SelectEq("src", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("selected %d tuples, want 2", got.Len())
	}
	if _, err := r.SelectEq("nope", int64(1)); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestSelectEqNoCoercion(t *testing.T) {
	r := New("a")
	r.MustInsert(Tuple{int64(1)})
	got, err := r.SelectEq("a", float64(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Error("int64(1) matched float64(1); engine must not coerce")
	}
}

func TestProject(t *testing.T) {
	r := edgeRel([3]int64{1, 2, 7}, [3]int64{1, 3, 8})
	p, err := r.Project("dst", "src")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Schema().Equal(Schema{"dst", "src"}) {
		t.Errorf("schema = %v", p.Schema())
	}
	if !reflect.DeepEqual(p.Tuples()[0], Tuple{int64(2), int64(1)}) {
		t.Errorf("tuple = %v", p.Tuples()[0])
	}
	if _, err := r.Project("ghost"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestProjectKeepsDuplicates(t *testing.T) {
	r := edgeRel([3]int64{1, 2, 7}, [3]int64{1, 3, 8})
	p, err := r.Project("src")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Errorf("projection is a bag; got %d tuples, want 2", p.Len())
	}
	if p.Distinct().Len() != 1 {
		t.Error("distinct projection should collapse")
	}
}

func TestRename(t *testing.T) {
	r := edgeRel([3]int64{1, 2, 7})
	n, err := r.Rename("a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if !n.Schema().Equal(Schema{"a", "b", "c"}) {
		t.Errorf("schema = %v", n.Schema())
	}
	if _, err := r.Rename("a"); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestUnionDistinct(t *testing.T) {
	a := edgeRel([3]int64{1, 2, 1})
	b := edgeRel([3]int64{1, 2, 1}, [3]int64{2, 3, 1})
	u, err := a.Union(b)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 2 {
		t.Errorf("union size = %d, want 2 (set semantics)", u.Len())
	}
	if _, err := a.Union(New("x")); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestJoinPathComposition(t *testing.T) {
	// R ⋈ R on dst=src is the single step of transitive closure.
	r := edgeRel([3]int64{1, 2, 1}, [3]int64{2, 3, 1}, [3]int64{3, 4, 1})
	s, err := r.Rename("src2", "dst2", "cost2")
	if err != nil {
		t.Fatal(err)
	}
	j, err := r.Join(s, []string{"dst"}, []string{"src2"})
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 2 {
		t.Fatalf("join size = %d, want 2 (1-2-3, 2-3-4)", j.Len())
	}
	if !j.Schema().Equal(Schema{"src", "dst", "cost", "dst2", "cost2"}) {
		t.Errorf("join schema = %v", j.Schema())
	}
}

func TestJoinErrors(t *testing.T) {
	r := edgeRel([3]int64{1, 2, 1})
	if _, err := r.Join(r, []string{"dst"}, []string{"src"}); err == nil {
		t.Error("ambiguous output schema accepted (self-join without rename)")
	}
	if _, err := r.Join(r, nil, nil); err == nil {
		t.Error("empty attribute lists accepted")
	}
	if _, err := r.Join(r, []string{"ghost"}, []string{"src"}); err == nil {
		t.Error("unknown left attribute accepted")
	}
	s, _ := r.Rename("a", "b", "c")
	if _, err := r.Join(s, []string{"dst"}, []string{"ghost"}); err == nil {
		t.Error("unknown right attribute accepted")
	}
}

func TestJoinBuildSideSymmetry(t *testing.T) {
	// Join result must not depend on which side is smaller.
	small := edgeRel([3]int64{1, 2, 1})
	bigT := [][3]int64{{2, 3, 1}, {2, 4, 1}, {5, 6, 1}, {7, 8, 1}}
	big := edgeRel(bigT...)
	bigR, _ := big.Rename("s2", "d2", "c2")
	j1, err := small.Join(bigR, []string{"dst"}, []string{"s2"})
	if err != nil {
		t.Fatal(err)
	}
	smallR, _ := small.Rename("s2", "d2", "c2")
	j2, err := big.Join(smallR, []string{"src"}, []string{"d2"})
	if err != nil {
		t.Fatal(err)
	}
	if j1.Len() != 2 || j2.Len() != 2 {
		t.Errorf("join sizes = %d, %d, want 2, 2", j1.Len(), j2.Len())
	}
}

func TestMinBy(t *testing.T) {
	r := edgeRel([3]int64{1, 2, 9}, [3]int64{1, 2, 3}, [3]int64{1, 3, 4})
	m, err := r.MinBy("cost", "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("MinBy size = %d, want 2", m.Len())
	}
	if !m.Contains(Tuple{int64(1), int64(2), float64(3)}) {
		t.Errorf("MinBy kept wrong tuple: %v", m)
	}
	if _, err := r.MinBy("ghost", "src"); err == nil {
		t.Error("unknown value attribute accepted")
	}
	if _, err := r.MinBy("cost"); err == nil {
		t.Error("missing keys accepted")
	}
}

func TestMinByNonNumeric(t *testing.T) {
	r := New("k", "v")
	r.MustInsert(Tuple{int64(1), "not a number"})
	if _, err := r.MinBy("v", "k"); err == nil {
		t.Error("non-numeric aggregation accepted")
	}
}

func TestMinValueAndSum(t *testing.T) {
	r := edgeRel([3]int64{1, 2, 9}, [3]int64{1, 3, 4})
	min, ok, err := r.MinValue("cost")
	if err != nil || !ok || min != 4 {
		t.Errorf("MinValue = %v, %v, %v", min, ok, err)
	}
	_, ok, err = New("cost").MinValue("cost")
	if err != nil || ok {
		t.Error("MinValue of empty relation should report not-found")
	}
}

func TestTupleKeyDistinguishesTypes(t *testing.T) {
	pairs := [][2]Tuple{
		{{int64(1)}, {float64(1)}},
		{{"1"}, {int64(1)}},
		{{true}, {"true"}},
		{{"a", "b"}, {"ab", ""}},
		{{"ab"}, {"a", "b"}},
	}
	for _, p := range pairs {
		if p[0].Key() == p[1].Key() {
			t.Errorf("keys collide: %v vs %v", p[0], p[1])
		}
	}
}

func TestSortDeterministic(t *testing.T) {
	r := edgeRel([3]int64{2, 1, 1}, [3]int64{1, 2, 1})
	r.Sort()
	if r.Tuples()[0][0] != int64(1) {
		t.Errorf("sorted first tuple = %v", r.Tuples()[0])
	}
}

func TestStringRendering(t *testing.T) {
	r := edgeRel([3]int64{1, 2, 1})
	s := r.String()
	if !strings.Contains(s, "src, dst, cost") || !strings.Contains(s, "(1 tuples)") {
		t.Errorf("String() = %q", s)
	}
}

func TestCloneIndependent(t *testing.T) {
	r := edgeRel([3]int64{1, 2, 1})
	c := r.Clone()
	c.MustInsert(Tuple{int64(9), int64(9), 1.0})
	c.Tuples()[0][0] = int64(42)
	if r.Len() != 1 || r.Tuples()[0][0] != int64(1) {
		t.Error("clone shares storage with original")
	}
}

func TestGraphConversionRoundTrip(t *testing.T) {
	g := graph.New()
	g.AddEdge(graph.Edge{From: 1, To: 2, Weight: 2.5})
	g.AddEdge(graph.Edge{From: 2, To: 3, Weight: 1})
	r := FromGraph(g)
	if r.Len() != 2 {
		t.Fatalf("relation size = %d", r.Len())
	}
	for i, e := range g.Edges() {
		want := Tuple{int64(e.From), int64(e.To), e.Weight}
		if !reflect.DeepEqual(r.Tuples()[i], want) {
			t.Errorf("tuple %d = %v, want %v", i, r.Tuples()[i], want)
		}
	}
}

// TestPropertyUnionDifference checks that A ∪ B holds exactly the
// tuples of A and of B, each once, over random edge relations.
func TestPropertyUnionDifference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Relation {
			r := New("src", "dst", "cost")
			for i := 0; i < rng.Intn(20); i++ {
				r.MustInsert(Tuple{int64(rng.Intn(5)), int64(rng.Intn(5)), float64(rng.Intn(3))})
			}
			return r
		}
		a, b := mk(), mk()
		u, err := a.Union(b)
		if err != nil {
			return false
		}
		for _, tup := range u.Tuples() {
			if !a.Contains(tup) && !b.Contains(tup) {
				return false
			}
		}
		for _, src := range []*Relation{a, b} {
			for _, tup := range src.Tuples() {
				if !u.Contains(tup) {
					return false
				}
			}
		}
		return u.Distinct().Len() == u.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertySetAlgebra: A ∪ A == Distinct(A), A ∪ B == B ∪ A as sets,
// and Distinct is idempotent.
func TestPropertySetAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Relation {
			r := New("a", "b")
			for i := 0; i < rng.Intn(15); i++ {
				r.MustInsert(Tuple{int64(rng.Intn(4)), int64(rng.Intn(4))})
			}
			return r
		}
		a, b := mk(), mk()
		aa, err := a.Union(a)
		if err != nil {
			return false
		}
		ab, err := a.Union(b)
		if err != nil {
			return false
		}
		ba, err := b.Union(a)
		if err != nil {
			return false
		}
		d := a.Distinct()
		return reflect.DeepEqual(aa.Tuples(), d.Tuples()) &&
			reflect.DeepEqual(ab.Sort().Tuples(), ba.Sort().Tuples()) &&
			reflect.DeepEqual(d.Distinct().Tuples(), d.Tuples())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyJoinMatchesNestedLoop compares the hash join against a
// naive nested-loop reference on random inputs.
func TestPropertyJoinMatchesNestedLoop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New("x", "y")
		b := New("u", "v")
		for i := 0; i < rng.Intn(15); i++ {
			a.MustInsert(Tuple{int64(rng.Intn(4)), int64(rng.Intn(4))})
		}
		for i := 0; i < rng.Intn(15); i++ {
			b.MustInsert(Tuple{int64(rng.Intn(4)), int64(rng.Intn(4))})
		}
		j, err := a.Join(b, []string{"y"}, []string{"u"})
		if err != nil {
			return false
		}
		// Nested-loop reference.
		var ref []string
		for _, ta := range a.Tuples() {
			for _, tb := range b.Tuples() {
				if valueEqual(ta[1], tb[0]) {
					ref = append(ref, Tuple{ta[0], ta[1], tb[1]}.Key())
				}
			}
		}
		if len(ref) != j.Len() {
			return false
		}
		got := make(map[string]int)
		for _, tj := range j.Tuples() {
			got[tj.Key()]++
		}
		want := make(map[string]int)
		for _, k := range ref {
			want[k]++
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
