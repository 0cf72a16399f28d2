package core

import (
	"fmt"
	"sort"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
)

// TestChunkSizeDeterminism is the contract of Config.ScanChunkRows: the
// built tree is bit-identical at every chunk size and every worker count,
// and matches the in-memory reference. Chunk size 1 degenerates to the
// row-at-a-time scan; 7 leaves ragged final chunks; 64 and 1024 cut the
// stream mid-node-batch in different places. All statistics are exact
// integer counts and buffers receive tuples in stream order, so none of
// that may show in the output.
func TestChunkSizeDeterminism(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 3*data.DefaultChunkRows, 107)
	base := Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
		SampleSize: 1500, Seed: 11,
	}
	ref := buildRef(t, src, inmem.Config{
		Method: base.Method, MaxDepth: base.MaxDepth, MinSplit: base.MinSplit,
	})

	for _, rows := range []int{1, 7, 64, 1024} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("rows=%d/workers=%d", rows, workers), func(t *testing.T) {
				cfg := base
				cfg.ScanChunkRows = rows
				cfg.Parallelism = workers
				cfg.TempDir = t.TempDir()
				got, err := Build(src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer got.Close()
				requireEqual(t, "chunked vs reference", got.Tree(), ref)
				if err := got.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestScanModesAgree pins the cleanup scan's chunk router to the
// row-at-a-time oracle (one Tree.route descent per tuple) on one
// skeleton: after each pass every node's class counts, interval counters
// (lowCounts, highCounts, eqLow), AVC, histogram and moment counts must
// be equal, and every stuck set and leaf family must hold the same tuple
// multiset. The router counts every statistic eagerly and forks subtree
// descents at P>1; the matrix runs it in-line and forked, over an
// in-memory source and over a zone-mapped, age-sorted .boatc whose zone
// maps decide whole batches, for an impurity method (AVC sets and
// histograms) and a moment method.
func TestScanModesAgree(t *testing.T) {
	mem := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 2*data.DefaultChunkRows+123, 55)
	_, colPath := writeF1Files(t, 8*data.DefaultChunkRows, 512)
	for _, in := range []struct {
		name string
		src  func() data.Source
	}{
		{"mem", func() data.Source { return mem }},
		{"boatc", func() data.Source { return openFile(t, colPath) }},
	} {
		for _, m := range []split.Method{split.NewGini(), split.NewQuestLike()} {
			for _, para := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/P%d", in.name, m.Name(), para), func(t *testing.T) {
					reg := obs.NewRegistry()
					bench, err := newScanBench(in.src(), Config{
						Method: m, MaxDepth: 5, MinSplit: 50,
						SampleSize: 1000, Seed: 3, Parallelism: para,
						TempDir: t.TempDir(), Metrics: reg,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer bench.Close()
					n, _ := bench.src.Count()

					seen, err := bench.tree.rowScan(bench.src, bench.root)
					if err != nil {
						t.Fatalf("row oracle: %v", err)
					}
					if seen != n {
						t.Fatalf("row oracle saw %d tuples, want %d", seen, n)
					}
					want := scanState(t, bench.root)
					if err := bench.Reset(); err != nil {
						t.Fatal(err)
					}
					if seen, err = bench.runOnce(); err != nil {
						t.Fatalf("router: %v", err)
					}
					if seen != n {
						t.Fatalf("router saw %d tuples, row oracle saw %d", seen, n)
					}
					got := scanState(t, bench.root)
					if len(got) != len(want) {
						t.Fatalf("router state has %d entries, oracle %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("router and oracle differ:\nrouter: %.300s\noracle: %.300s", got[i], want[i])
						}
					}
					// F1's class depends on age in two bands, which the
					// impurity trees split on; the moment method's
					// mean-separating splits lie elsewhere, so only the
					// former can route age-sorted batches by zone.
					skips := reg.Snapshot().Counters["scan.blocks_skipped"]
					if in.name == "boatc" && m.Name() == "gini" && skips == 0 {
						t.Fatal("no zone skips on the sorted .boatc; the skip path was not exercised")
					}
				})
			}
		}
	}
}

// scanState renders every statistic and buffer a cleanup scan writes, one
// entry per node statistic in preorder: class counts, AVC, histogram and
// moment counts, each node's interval counters (collectIntervalCounters)
// and the stuck-set and leaf-family contents as sorted tuple multisets.
func scanState(t *testing.T, root *bnode) []string {
	t.Helper()
	out := []string{fmt.Sprint("interval ", collectIntervalCounters(root))}
	var walk func(n *bnode, path string)
	walk = func(n *bnode, path string) {
		add := func(what string, v any) { out = append(out, fmt.Sprintf("%s %s %v", path, what, v)) }
		add("class", n.classCounts)
		if n.isLeaf() {
			add("family", bagMultiset(t, n.family))
			return
		}
		for i, cc := range n.catCounts {
			if cc != nil {
				add(fmt.Sprintf("avc%d", i), cc.Counts)
			}
		}
		for i, h := range n.hist {
			if h != nil {
				add(fmt.Sprintf("hist%d", i), h.Counts)
			}
		}
		if m := n.moments; m != nil {
			add("moments", m.ClassTotals)
			for i := range m.Num {
				if m.Num[i] != nil {
					add(fmt.Sprintf("num%d", i), *m.Num[i])
				} else {
					add(fmt.Sprintf("cat%d", i), m.Cat[i].Counts)
				}
			}
		}
		if n.pending != nil {
			add("stuck", bagMultiset(t, n.pending))
		}
		walk(n.left, path+"L")
		walk(n.right, path+"R")
	}
	walk(root, "root")
	return out
}

// bagMultiset renders a bag's tuples in sorted order, so bags holding the
// same multiset compare equal whatever order they were filled in.
func bagMultiset(t *testing.T, b *data.TupleBag) []string {
	t.Helper()
	tuples, err := b.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(tuples))
	for i, tp := range tuples {
		out[i] = fmt.Sprint(tp.Values, tp.Class)
	}
	sort.Strings(out)
	return out
}
