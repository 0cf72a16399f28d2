package inmem

import (
	"slices"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// Attribute-list tree construction in the style of SPRINT (Shafer,
// Agrawal, Mehta, VLDB 1996): each numeric attribute is sorted once at
// the root into an "attribute list" of (value, class, row) entries; when
// a node splits, every list is partitioned into the children with a
// stable linear pass, so sorted order is preserved and no sorting happens
// below the root. AVC-sets are built by linear run aggregation over the
// sorted lists.
//
// The selected splits are identical to the naive per-node re-sorting
// builder (both feed the same integer counts to the same split-selection
// code); the test suite cross-checks the two on randomized inputs, with
// the naive builder kept as a test oracle (naive_test.go).

// attrList is one numeric attribute's sorted projection over a family:
// parallel arrays of value, class label, and row id into the fixed tuple
// backing array.
type attrList struct {
	vals    []float64
	classes []int32
	rows    []int32
}

type listBuilder struct {
	schema *data.Schema
	cfg    Config
	tuples []data.Tuple // fixed backing array; never reordered
	side   []bool       // side[row]: routing decision of the node currently splitting
}

// Build constructs the decision tree for the family using attribute
// lists. The tuple slice itself is not reordered.
func Build(schema *data.Schema, tuples []data.Tuple, cfg Config) *tree.Tree {
	b := &listBuilder{
		schema: schema,
		cfg:    cfg,
		tuples: tuples,
		side:   make([]bool, len(tuples)),
	}
	rows := make([]int32, len(tuples))
	for i := range rows {
		rows[i] = int32(i)
	}
	root := b.buildNode(rows, b.rootLists(), 0)
	return &tree.Tree{Schema: schema, Root: root}
}

// rootLists sorts each numeric attribute once (stably, so equal values
// keep row order — irrelevant for the result, deterministic regardless).
func (b *listBuilder) rootLists() []*attrList {
	lists := make([]*attrList, len(b.schema.Attributes))
	n := len(b.tuples)
	for a, attr := range b.schema.Attributes {
		if attr.Kind != data.Numeric {
			continue
		}
		vals := make([]float64, n)
		for i, t := range b.tuples {
			vals[i] = t.Values[a]
		}
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		// Ascending, NaN (missing values) last as one run — the canonical
		// AVC order (split.SameValue) — stabilized by row id.
		slices.SortFunc(idx, func(x, y int32) int {
			a, b := vals[x], vals[y]
			switch {
			case a < b:
				return -1
			case a > b:
				return 1
			case a == b || a != a && b != b:
				return int(x - y) // same entry: stabilize
			case a == a:
				return -1 // b is NaN: a sorts first
			default:
				return 1 // a is NaN: b sorts first
			}
		})
		l := &attrList{
			vals:    make([]float64, n),
			classes: make([]int32, n),
			rows:    make([]int32, n),
		}
		for i, row := range idx {
			l.vals[i] = vals[row]
			l.classes[i] = int32(b.tuples[row].Class)
			l.rows[i] = row
		}
		lists[a] = l
	}
	return lists
}

func (b *listBuilder) buildNode(rows []int32, lists []*attrList, depth int) *tree.Node {
	k := b.schema.ClassCount
	classTotals := make([]int64, k)
	for _, row := range rows {
		classTotals[b.tuples[row].Class]++
	}
	n := &tree.Node{ClassCounts: classTotals, Label: tree.MajorityLabel(classTotals)}
	if b.cfg.StopBeforeSplit(int64(len(rows)), depth, classTotals) {
		return n
	}
	stats := b.statsFromLists(rows, lists, classTotals)
	best := b.cfg.Method.BestSplit(stats)
	if !best.Found {
		return n
	}
	n.Crit = best

	// Record every row's side once, then partition the row set and each
	// attribute list with stable linear passes.
	var leftN int
	for _, row := range rows {
		goLeft := best.Left(b.tuples[row])
		b.side[row] = goLeft
		if goLeft {
			leftN++
		}
	}
	leftRows := make([]int32, 0, leftN)
	rightRows := make([]int32, 0, len(rows)-leftN)
	for _, row := range rows {
		if b.side[row] {
			leftRows = append(leftRows, row)
		} else {
			rightRows = append(rightRows, row)
		}
	}
	leftLists := make([]*attrList, len(lists))
	rightLists := make([]*attrList, len(lists))
	for a, l := range lists {
		if l == nil {
			continue
		}
		leftLists[a], rightLists[a] = b.partitionList(l, leftN)
	}
	n.Left = b.buildNode(leftRows, leftLists, depth+1)
	n.Right = b.buildNode(rightRows, rightLists, depth+1)
	return n
}

// partitionList splits a sorted list by the recorded sides, preserving
// order within each side.
func (b *listBuilder) partitionList(l *attrList, leftN int) (*attrList, *attrList) {
	n := l.len()
	left := &attrList{
		vals:    make([]float64, 0, leftN),
		classes: make([]int32, 0, leftN),
		rows:    make([]int32, 0, leftN),
	}
	right := &attrList{
		vals:    make([]float64, 0, n-leftN),
		classes: make([]int32, 0, n-leftN),
		rows:    make([]int32, 0, n-leftN),
	}
	for i := 0; i < n; i++ {
		row := l.rows[i]
		dst := right
		if b.side[row] {
			dst = left
		}
		dst.vals = append(dst.vals, l.vals[i])
		dst.classes = append(dst.classes, l.classes[i])
		dst.rows = append(dst.rows, row)
	}
	return left, right
}

func (l *attrList) len() int { return len(l.vals) }

// statsFromLists assembles the node's AVC-group: numeric attributes by
// linear run aggregation over their sorted lists, categorical attributes
// by a counting pass over the row set.
func (b *listBuilder) statsFromLists(rows []int32, lists []*attrList, classTotals []int64) *split.NodeStats {
	k := b.schema.ClassCount
	stats := &split.NodeStats{
		Schema:      b.schema,
		ClassTotals: classTotals,
		Num:         make([]*split.NumericAVC, len(b.schema.Attributes)),
		Cat:         make([]*split.CatAVC, len(b.schema.Attributes)),
	}
	for a, attr := range b.schema.Attributes {
		if attr.Kind == data.Categorical {
			avc := split.NewCatAVC(attr.Cardinality, k)
			for _, row := range rows {
				t := &b.tuples[row]
				avc.Counts[int(t.Values[a])][t.Class]++
			}
			stats.Cat[a] = avc
			continue
		}
		l := lists[a]
		distinct := 0
		for i := range l.vals {
			if i == 0 || !split.SameValue(l.vals[i], l.vals[i-1]) {
				distinct++
			}
		}
		avc := &split.NumericAVC{
			Values: make([]float64, 0, distinct),
			Counts: make([][]int64, 0, distinct),
		}
		backing := make([]int64, distinct*k)
		var row []int64
		for i := range l.vals {
			if i == 0 || !split.SameValue(l.vals[i], l.vals[i-1]) {
				row = backing[len(avc.Values)*k : (len(avc.Values)+1)*k]
				avc.Values = append(avc.Values, l.vals[i])
				avc.Counts = append(avc.Counts, row)
			}
			row[l.classes[i]]++
		}
		stats.Num[a] = avc
	}
	return stats
}
