package fragment

import (
	"fmt"
	"math"
	"strings"
)

// Characteristics are the fragmentation quality measures of §4.2: "the
// characteristics of the fragmentations that we show are: average size
// of the fragments F (i.e., number of edges), average size of the
// disconnection sets DS (i.e., number of nodes), average deviation AF
// from F, and average deviation ADS from DS."
type Characteristics struct {
	// NumFragments is the number of fragments produced.
	NumFragments int
	// NumDisconnectionSets is the number of non-empty DS_ij.
	NumDisconnectionSets int
	// F is the mean fragment size in edges.
	F float64
	// DS is the mean disconnection set size in nodes.
	DS float64
	// AF is the mean absolute deviation of fragment sizes from F.
	AF float64
	// ADS is the mean absolute deviation of DS sizes from DS.
	ADS float64
	// Cycles is the circuit rank of the fragmentation graph; zero means
	// loosely connected.
	Cycles int
	// LooselyConnected records Cycles == 0.
	LooselyConnected bool
	// MaxDiameter is the largest fragment diameter in hops — the §2.2
	// workload measure: "the number of iterations depends on the
	// diameter of a fragment".
	MaxDiameter int
	// MeanDiameter is the mean fragment diameter.
	MeanDiameter float64
}

// Measure computes the characteristics of a fragmentation.
func Measure(fr *Fragmentation) Characteristics {
	var c Characteristics
	c.NumFragments = fr.NumFragments()
	sizes := make([]float64, 0, c.NumFragments)
	var diamSum float64
	base := fr.Base()
	for _, f := range fr.Fragments() {
		sizes = append(sizes, float64(f.Size()))
		d := f.Subgraph(base).Diameter()
		diamSum += float64(d)
		if d > c.MaxDiameter {
			c.MaxDiameter = d
		}
	}
	c.MeanDiameter = diamSum / float64(c.NumFragments)
	c.F, c.AF = meanAndDeviation(sizes)
	dsSizes := make([]float64, 0)
	for _, ds := range fr.DisconnectionSets() {
		dsSizes = append(dsSizes, float64(len(ds)))
	}
	c.NumDisconnectionSets = len(dsSizes)
	c.DS, c.ADS = meanAndDeviation(dsSizes)
	fg := fr.FragmentationGraph()
	c.Cycles = fg.CycleCount()
	c.LooselyConnected = c.Cycles == 0
	return c
}

// meanAndDeviation returns the mean and the mean absolute deviation of
// xs ("average deviation" in the paper's tables). Empty input yields
// zeros.
func meanAndDeviation(xs []float64) (mean, dev float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		dev += math.Abs(x - mean)
	}
	dev /= float64(len(xs))
	return mean, dev
}

// Average combines the characteristics of repeated experiments into
// their per-field means, as the paper's tables do over batches of
// random graphs. Boolean fields report the majority; Cycles the mean
// rounded to nearest.
func Average(cs []Characteristics) Characteristics {
	if len(cs) == 0 {
		return Characteristics{}
	}
	var out Characteristics
	var cyc, frags, dsn, maxDiam float64
	loose := 0
	for _, c := range cs {
		out.F += c.F
		out.DS += c.DS
		out.AF += c.AF
		out.ADS += c.ADS
		out.MeanDiameter += c.MeanDiameter
		maxDiam += float64(c.MaxDiameter)
		cyc += float64(c.Cycles)
		frags += float64(c.NumFragments)
		dsn += float64(c.NumDisconnectionSets)
		if c.LooselyConnected {
			loose++
		}
	}
	n := float64(len(cs))
	out.F /= n
	out.DS /= n
	out.AF /= n
	out.ADS /= n
	out.MeanDiameter /= n
	out.MaxDiameter = int(math.Round(maxDiam / n))
	out.Cycles = int(math.Round(cyc / n))
	out.NumFragments = int(math.Round(frags / n))
	out.NumDisconnectionSets = int(math.Round(dsn / n))
	out.LooselyConnected = loose*2 > len(cs)
	return out
}

// String renders the characteristics as one paper-style table row.
func (c Characteristics) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "F=%.1f DS=%.1f AF=%.1f ADS=%.2f", c.F, c.DS, c.AF, c.ADS)
	fmt.Fprintf(&sb, " fragments=%d ds=%d cycles=%d", c.NumFragments, c.NumDisconnectionSets, c.Cycles)
	if c.LooselyConnected {
		sb.WriteString(" (loosely connected)")
	}
	return sb.String()
}
