package core

import (
	"fmt"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
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

// TestScanModesAgree pins the two cleanup-scan implementations to the
// row-at-a-time oracle on one skeleton: the oracle, the sequential
// columnar scan and the sharded columnar scan must all see every tuple
// (re-running the pass after an exact reset and finishing the build each
// time would be expensive; here we compare the cheap observable, the
// tuple count, and rely on TestChunkSizeDeterminism for tree-level
// equality).
func TestScanModesAgree(t *testing.T) {
	const n = 2*data.DefaultChunkRows + 123
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, n, 55)
	bench, err := newScanBench(src, Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
		SampleSize: 1000, Seed: 3, TempDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bench.Close()

	seen, err := bench.tree.rowScan(bench.src, bench.root)
	if err != nil {
		t.Fatalf("row oracle: %v", err)
	}
	if seen != n {
		t.Fatalf("row oracle saw %d tuples, want %d", seen, n)
	}
	for _, sharded := range []bool{false, true} {
		if err := bench.Reset(); err != nil {
			t.Fatal(err)
		}
		seen, err := bench.runOnce(sharded)
		if err != nil {
			t.Fatalf("sharded=%v: %v", sharded, err)
		}
		if seen != n {
			t.Fatalf("sharded=%v saw %d tuples, row oracle saw %d", sharded, seen, n)
		}
	}
}
