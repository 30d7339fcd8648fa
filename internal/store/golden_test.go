package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/dsa"
	"repro/internal/fragment"
	"repro/internal/fragment/center"
	"repro/internal/fragment/linear"
	"repro/internal/gen"
)

// TestImageChecksums pins the TCSF bytes of the ledger's three
// deployments (generator seed 1): the paper's 4×150 transportation
// graph under distributed center fragmentation into 4, the 64×64 grid
// (diagonal 0.1) under linear fragmentation into 8, and the 200k-edge
// road network over its own cities. A change to what a store holds or
// to how it is encoded moves a sum; so does any change to the
// fragmentations or complementary tables behind them. Each image must
// also survive a decode: Encode(Decode(img)) gives back the same bytes.
func TestImageChecksums(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*fragment.Fragmentation, error)
		sum   string
	}{
		{"paper", func() (*fragment.Fragmentation, error) {
			g, err := gen.Transportation(gen.TransportConfig{Clusters: 4, Cluster: gen.DefaultsWithDegree(150, 5.25, 1)})
			if err != nil {
				return nil, err
			}
			return center.Fragment(g, center.Options{NumFragments: 4, Distributed: true})
		}, "d07d613d8acae333f00bddf46494cf45f648f5ec5f4298c24b7d778e3585b46e"},
		{"grid", func() (*fragment.Fragmentation, error) {
			g, err := gen.Grid(gen.GridConfig{Width: 64, Height: 64, DiagonalProb: 0.1, Seed: 1})
			if err != nil {
				return nil, err
			}
			res, err := linear.Fragment(g, linear.Options{NumFragments: 8})
			if err != nil {
				return nil, err
			}
			return res.Fragmentation, nil
		}, "e2b40a79860d90a6b52116a24541439638106fdb98099eab10b97aa5b23693d7"},
		{"road", func() (*fragment.Fragmentation, error) {
			g, sets, err := gen.RoadNetwork(gen.RoadConfigForEdges(200_000, 1))
			if err != nil {
				return nil, err
			}
			return fragment.New(g, sets)
		}, "481bf8b8d62254747dc996c1cd4b9184a6a69d0bef45176b6f835bbc5afde25f"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "road" && testing.Short() {
				t.Skip("road image skipped in -short mode")
			}
			fr, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			st, err := dsa.Build(fr, dsa.Options{})
			if err != nil {
				t.Fatal(err)
			}
			img, err := Encode(st)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(img); hex.EncodeToString(sum[:]) != tc.sum {
				t.Errorf("sha256 = %x, want %s", sum, tc.sum)
			}
			loaded, err := Decode(img)
			if err != nil {
				t.Fatal(err)
			}
			again, err := Encode(loaded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, img) {
				t.Error("Encode(Decode(img)) differs from img")
			}
		})
	}
}
