package inmem

import (
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// buildNaive constructs the decision tree with per-node AVC re-sorting —
// the straightforward instantiation of the Figure 1 schema. Build (in
// attrlist.go) is the production path; buildNaive is the independent
// oracle the tests cross-check it against. The tuple slice is reordered
// in place during recursive partitioning; pass an owned slice.
func buildNaive(schema *data.Schema, tuples []data.Tuple, cfg Config) *tree.Tree {
	return &tree.Tree{Schema: schema, Root: buildNode(schema, tuples, cfg, 0)}
}

func buildNode(schema *data.Schema, tuples []data.Tuple, cfg Config, depth int) *tree.Node {
	classTotals := make([]int64, schema.ClassCount)
	for _, t := range tuples {
		classTotals[t.Class]++
	}
	n := &tree.Node{ClassCounts: classTotals, Label: tree.MajorityLabel(classTotals)}
	if cfg.StopBeforeSplit(int64(len(tuples)), depth, classTotals) {
		return n
	}
	stats := split.BuildNodeStats(schema, tuples)
	best := cfg.Method.BestSplit(stats)
	if !best.Found {
		return n
	}
	n.Crit = best
	left := partition(tuples, best)
	n.Left = buildNode(schema, tuples[:left], cfg, depth+1)
	n.Right = buildNode(schema, tuples[left:], cfg, depth+1)
	return n
}

// partition reorders tuples so the first returned count of them route left
// under the criterion, preserving nothing about the original order.
func partition(tuples []data.Tuple, crit split.Split) int {
	i, j := 0, len(tuples)
	for i < j {
		if crit.Left(tuples[i]) {
			i++
		} else {
			j--
			tuples[i], tuples[j] = tuples[j], tuples[i]
		}
	}
	return i
}
