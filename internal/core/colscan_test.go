package core

import (
	"fmt"
	"sort"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
)

// writeF1Files materializes one age-sorted F1 dataset in both on-disk
// formats and returns the two paths. Sorting on age — the attribute F1's
// root split tests — clusters the blocks so their zone maps actually
// decide routing, the workload zone skipping is designed for.
func writeF1Files(t *testing.T, n int64, blockRows int) (rowPath, colPath string) {
	t.Helper()
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, n, 99)
	tuples, err := data.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(tuples, func(i, j int) bool {
		return tuples[i].Values[gen.AttrAge] < tuples[j].Values[gen.AttrAge]
	})
	mem := data.NewMemSource(src.Schema(), tuples)
	dir := t.TempDir()
	rowPath, colPath = dir+"/d.boat", dir+"/d.boatc"
	if _, err := data.WriteFile(rowPath, mem, data.FormatCompact); err != nil {
		t.Fatal(err)
	}
	if _, err := data.WriteColFile(colPath, mem, blockRows); err != nil {
		t.Fatal(err)
	}
	return rowPath, colPath
}

func colTestConfig() Config {
	return Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
		SampleSize: 1500, Seed: 11,
	}
}

// zonelessCopy reads a columnar file back into a MemSource: the same
// tuple sequence, but its chunks carry no zone maps, so a build or update
// fed from it never takes the zone-skip path. It is the reference the
// zone-skip exactness tests compare against.
func zonelessCopy(t *testing.T, path string) data.Source {
	t.Helper()
	src, err := data.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := data.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	return data.NewMemSource(src.Schema(), tuples)
}

// openFile opens a dataset file of either format, failing the test on
// error.
func openFile(t *testing.T, path string) data.Source {
	t.Helper()
	src, err := data.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestColumnarFormatTreeIdentity is the storage-independence contract of
// the columnar path: the tree built from a columnar file — at every
// pipeline depth (including the synchronous reader) and parallelism — is
// bit-identical to the tree built from the row file holding the same
// tuple sequence. At P>1 the chunk router forks subtree descents over
// the pipelined reader.
func TestColumnarFormatTreeIdentity(t *testing.T) {
	rowPath, colPath := writeF1Files(t, 3*data.DefaultChunkRows, 1024)

	rowSrc, err := data.Open(rowPath)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := colTestConfig()
	refCfg.Parallelism = 1
	refCfg.TempDir = t.TempDir()
	ref, err := Build(rowSrc, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	for _, depth := range []int{-1, 1, 4} {
		for _, para := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("depth%d-P%d", depth, para), func(t *testing.T) {
				colSrc, err := data.Open(colPath)
				if err != nil {
					t.Fatal(err)
				}
				cfg := colTestConfig()
				cfg.Parallelism = para
				cfg.PipelineDepth = depth
				cfg.TempDir = t.TempDir()
				bt, err := Build(colSrc, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer bt.Close()
				requireEqual(t, "columnar vs row", bt.Tree(), ref.Tree())
				if err := bt.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestZoneSkipExactness: zone-map block skipping changes nothing but the
// work — the tree (and therefore every derived routing count, which
// CheckConsistency validates against the node statistics) is identical
// to the one built from the same tuples without zone maps, and on this
// clustered dataset the skip counter proves whole blocks actually
// bypassed the partition kernel.
func TestZoneSkipExactness(t *testing.T) {
	_, colPath := writeF1Files(t, 3*data.DefaultChunkRows, 512)

	build := func(src data.Source, reg *obs.Registry) *Tree {
		t.Helper()
		cfg := colTestConfig()
		cfg.Parallelism = 8
		cfg.TempDir = t.TempDir()
		cfg.Metrics = reg
		bt, err := Build(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}

	regOn := obs.NewRegistry()
	on := build(openFile(t, colPath), regOn)
	defer on.Close()
	regOff := obs.NewRegistry()
	off := build(zonelessCopy(t, colPath), regOff)
	defer off.Close()

	requireEqual(t, "zone maps vs none", on.Tree(), off.Tree())
	if err := on.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if skips := regOn.Snapshot().Counters["scan.blocks_skipped"]; skips == 0 {
		t.Fatal("no blocks skipped on the clustered dataset; the test exercised nothing")
	}
	if skips := regOff.Snapshot().Counters["scan.blocks_skipped"]; skips != 0 {
		t.Fatalf("zone-less reference build still skipped %d blocks", skips)
	}
}

// TestUpdateZoneSkipExactness: the streaming-update router's zone skip —
// which must also feed the eager interval counters for skipped numeric
// batches — leaves the tree identical to the unskipped descent over the
// same tuples without zone maps, for both insert and delete, while
// actually firing on clustered update chunks.
func TestUpdateZoneSkipExactness(t *testing.T) {
	base := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 2*data.DefaultChunkRows, 31)
	_, chunkPath := writeF1Files(t, data.DefaultChunkRows, 256)
	zoneless := zonelessCopy(t, chunkPath)

	build := func(reg *obs.Registry) *Tree {
		t.Helper()
		cfg := colTestConfig()
		cfg.Parallelism = 8
		cfg.TempDir = t.TempDir()
		cfg.Metrics = reg
		// Small update batches: each covers a narrow slice of the sorted
		// age range, so block zones can decide whole batches at the root.
		cfg.ScanChunkRows = 256
		bt, err := Build(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}

	regOn := obs.NewRegistry()
	on := build(regOn)
	defer on.Close()
	off := build(obs.NewRegistry())
	defer off.Close()

	apply := func(op func(data.Source) (UpdateStats, error), src data.Source) {
		t.Helper()
		if _, err := op(src); err != nil {
			t.Fatal(err)
		}
	}
	apply(on.Insert, openFile(t, chunkPath))
	apply(off.Insert, zoneless)
	requireEqual(t, "after insert", on.Tree(), off.Tree())
	if skips := regOn.Snapshot().Counters["update.blocks_skipped"]; skips == 0 {
		t.Fatal("insert skipped no blocks on the clustered chunk; the test exercised nothing")
	}

	apply(on.Delete, openFile(t, chunkPath))
	apply(off.Delete, zoneless)
	requireEqual(t, "after delete", on.Tree(), off.Tree())
}

// TestBlockShardedTreeIdentity is the determinism contract of the
// parallel cleanup scan over a many-block columnar file: with blocks
// smaller than a chunk, every chunk spans several blocks, and the chunk
// router still applies each node's rows in file order — so the tree is
// bit-identical to the sequential row build AND to the default P8 build,
// at every parallelism and pipeline depth, with no storage-fault retry.
func TestBlockShardedTreeIdentity(t *testing.T) {
	rowPath, colPath := writeF1Files(t, 3*data.DefaultChunkRows, 512)

	rowSrc, err := data.Open(rowPath)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := colTestConfig()
	refCfg.Parallelism = 1
	refCfg.TempDir = t.TempDir()
	ref, err := Build(rowSrc, refCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	p8Cfg := colTestConfig()
	p8Cfg.Parallelism = 8
	p8Cfg.TempDir = t.TempDir()
	p8, err := Build(openFile(t, colPath), p8Cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p8.Close()
	requireEqual(t, "P8 columnar vs row", p8.Tree(), ref.Tree())

	for _, depth := range []int{-1, 4} {
		for _, para := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("depth%d-P%d", depth, para), func(t *testing.T) {
				stats := &iostats.Stats{}
				cfg := colTestConfig()
				cfg.Parallelism = para
				cfg.PipelineDepth = depth
				cfg.Stats = stats
				cfg.TempDir = t.TempDir()
				bt, err := Build(openFile(t, colPath), cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer bt.Close()
				requireEqual(t, "many-block vs row", bt.Tree(), ref.Tree())
				requireEqual(t, "many-block vs P8", bt.Tree(), p8.Tree())
				if err := bt.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
				if r := stats.ScanRetries(); r != 0 {
					t.Errorf("fault-free build retried its cleanup scan %d times", r)
				}
			})
		}
	}
}

// collectIntervalCounters flattens every internal node's detached
// interval statistics (lowCounts, highCounts, eqLow) in preorder — the
// counters the chunk router must keep exact even for batches
// the zone maps route without a per-row pass.
func collectIntervalCounters(n *bnode) []int64 {
	var out []int64
	var walk func(*bnode)
	walk = func(n *bnode) {
		if n == nil || n.isLeaf() {
			return
		}
		out = append(out, n.eqLow)
		out = append(out, n.lowCounts...)
		out = append(out, n.highCounts...)
		walk(n.left)
		walk(n.right)
	}
	walk(n)
	return out
}

// TestUpdateIntervalCountersExactUnderZoneSkip pins the eager-counting
// contract of the chunk router's zone skip (router.go): a numeric batch
// a zone map routes left adds to lowCounts only (a left skip implies
// every value is strictly below the interval, so never eqLow), a batch
// routed right adds to highCounts — exactly the totals the per-row pass
// produces. The comparison is on the raw node counters, not just the
// derived tree, for insert (w=+1) and delete (w=-1) alike.
func TestUpdateIntervalCountersExactUnderZoneSkip(t *testing.T) {
	base := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 2*data.DefaultChunkRows, 31)
	_, chunkPath := writeF1Files(t, data.DefaultChunkRows, 256)
	zoneless := zonelessCopy(t, chunkPath)

	build := func(reg *obs.Registry) *Tree {
		t.Helper()
		cfg := colTestConfig()
		cfg.Parallelism = 4
		cfg.TempDir = t.TempDir()
		cfg.Metrics = reg
		cfg.ScanChunkRows = 256
		bt, err := Build(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}
	regOn := obs.NewRegistry()
	on := build(regOn)
	defer on.Close()
	off := build(obs.NewRegistry())
	defer off.Close()

	compare := func(stage string) {
		t.Helper()
		a, b := collectIntervalCounters(on.root), collectIntervalCounters(off.root)
		if len(a) != len(b) {
			t.Fatalf("%s: counter vectors differ in length: %d vs %d", stage, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: interval counter %d differs: zone maps %d, none %d", stage, i, a[i], b[i])
			}
		}
	}
	apply := func(op func(data.Source) (UpdateStats, error), src data.Source) {
		t.Helper()
		if _, err := op(src); err != nil {
			t.Fatal(err)
		}
	}
	compare("after build")
	apply(on.Insert, openFile(t, chunkPath))
	apply(off.Insert, zoneless)
	compare("after insert")
	if skips := regOn.Snapshot().Counters["update.blocks_skipped"]; skips == 0 {
		t.Fatal("insert skipped no blocks; the eager-counting path was not exercised")
	}
	apply(on.Delete, openFile(t, chunkPath))
	apply(off.Delete, zoneless)
	compare("after delete")
}
