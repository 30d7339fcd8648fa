package fragment

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestFragmentationWriteReadRoundTrip(t *testing.T) {
	g, sets := twoCluster()
	fr, err := New(g, sets)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(g, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumFragments() != fr.NumFragments() {
		t.Fatalf("fragments = %d, want %d", back.NumFragments(), fr.NumFragments())
	}
	for i := 0; i < fr.NumFragments(); i++ {
		if !reflect.DeepEqual(back.Fragment(i).Edges, fr.Fragment(i).Edges) {
			t.Errorf("fragment %d differs after round trip", i)
		}
	}
}

func TestFragmentationReadErrors(t *testing.T) {
	g, _ := twoCluster()
	cases := []struct {
		name, input string
	}{
		{"bad directive", "frag 0 1 2 1\n"},
		{"missing fields", "fragment 0 1 2\n"},
		{"bad index", "fragment x 1 2 1\n"},
		{"negative index", "fragment -1 1 2 1\n"},
		{"bad from", "fragment 0 x 2 1\n"},
		{"bad to", "fragment 0 1 x 1\n"},
		{"bad weight", "fragment 0 1 2 w\n"},
		{"hole in indices", "fragment 0 0 1 1\nfragment 2 1 2 1\n"},
		{"huge index", "fragment 4611686018427387903 1 2 1\n"},
		{"foreign edge", "fragment 0 7 8 1\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Read(g, strings.NewReader(c.input)); err == nil {
				t.Errorf("Read(%q) succeeded", c.input)
			}
		})
	}
}

// errAfterReader yields its payload, then fails with a synthetic
// stream error.
type errAfterReader struct {
	data []byte
	err  error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestFragmentationReadErrorsReportLine: parse failures name the
// offending line.
func TestFragmentationReadErrorsReportLine(t *testing.T) {
	g, _ := twoCluster()
	_, err := Read(g, strings.NewReader("# header\nfragment 0 1 x 1\n"))
	if err == nil {
		t.Fatal("Read succeeded, want error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error %q does not name line 2", err)
	}
}

// TestFragmentationReadStreamError: a reader failing mid-stream
// reports where the scan stopped alongside the underlying error.
func TestFragmentationReadStreamError(t *testing.T) {
	g, _ := twoCluster()
	boom := errors.New("synthetic stream failure")
	_, err := Read(g, &errAfterReader{data: []byte("fragment 0 1 2 1\n"), err: boom})
	if err == nil {
		t.Fatal("Read succeeded, want error")
	}
	if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), boom.Error()) {
		t.Errorf("error %q should name line 2 and the stream failure", err)
	}
}

func TestFragmentationReadCommentsAndBlanks(t *testing.T) {
	g := graph.New()
	e := graph.Edge{From: 1, To: 2, Weight: 1.5}
	g.AddEdge(e)
	in := "# header\n\nfragment 0 1 2 1.5\n"
	fr, err := Read(g, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if fr.NumFragments() != 1 || fr.Fragment(0).Size() != 1 {
		t.Errorf("fr = %v fragments", fr.NumFragments())
	}
}

// TestPropertyFragIORoundTrip: any valid partition survives a
// write/read cycle bit-exactly.
func TestPropertyFragIORoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		n := 4 + rng.Intn(12)
		for i := 0; i < n; i++ {
			g.AddNode(graph.NodeID(i), graph.Coord{})
		}
		for i := 1; i < n; i++ {
			g.AddEdge(graph.Edge{
				From: graph.NodeID(rng.Intn(i)), To: graph.NodeID(i),
				Weight: float64(1+rng.Intn(9)) / 2,
			})
		}
		fr, err := New(g, randomPartition(rng, g, 1+rng.Intn(3)))
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := fr.Write(&buf); err != nil {
			return false
		}
		back, err := Read(g, &buf)
		if err != nil {
			return false
		}
		if back.NumFragments() != fr.NumFragments() {
			return false
		}
		for i := 0; i < fr.NumFragments(); i++ {
			if !reflect.DeepEqual(back.Fragment(i).Edges, fr.Fragment(i).Edges) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
