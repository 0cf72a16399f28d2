package gen

import (
	"math/rand"

	"github.com/boatml/boat/internal/data"
)

// InstabilitySchema is the schema of the crafted dataset of Figure 12:
// one predictive numeric attribute x with 81 values (0..80) plus one
// non-predictive numeric attribute.
func InstabilitySchema() *data.Schema {
	return data.MustSchema([]data.Attribute{
		{Name: "x", Kind: data.Numeric},
		{Name: "noise", Kind: data.Numeric},
	}, 2)
}

// InstabilitySource generates the two-minima dataset illustrating the
// instability of impurity-based split selection (Figure 12): x is uniform
// on 0..80; the class-A probability is 0.9 for x <= 19, 0.5 for
// 20 <= x <= 60, and 0.1 for x >= 61. The segment sizes (20/41/20 values)
// make the weighted impurity of the splits x <= 19 and x <= 60 exactly
// tied in expectation, so the global minimum of the impurity function
// jumps between the two under small resampling perturbations — which is
// what stops coarse-tree growth when bootstrap trees disagree.
func InstabilitySource(n int64, seed int64) *InstabilityDS {
	return &InstabilityDS{schema: InstabilitySchema(), n: n, seed: seed}
}

// InstabilityDS is the deterministic re-scannable instability dataset.
type InstabilityDS struct {
	schema *data.Schema
	n      int64
	seed   int64
}

// Schema implements data.Source.
func (s *InstabilityDS) Schema() *data.Schema { return s.schema }

// Count implements data.Source.
func (s *InstabilityDS) Count() (int64, bool) { return s.n, true }

// ScanChunks implements data.Source: each scan replays the generator from
// its seed.
func (s *InstabilityDS) ScanChunks() (data.ChunkScanner, error) {
	rng := rand.New(rand.NewSource(s.seed))
	return data.GenerateChunks(2, s.n, func(vals []float64) int {
		x := float64(rng.Intn(81))
		vals[0] = x
		vals[1] = float64(rng.Intn(1000))
		var pA float64
		switch {
		case x <= 19:
			pA = 0.9
		case x <= 60:
			pA = 0.5
		default:
			pA = 0.1
		}
		if rng.Float64() < pA {
			return GroupA
		}
		return GroupB
	}), nil
}
