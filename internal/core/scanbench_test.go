package core

import (
	"testing"

	"github.com/boatml/boat/internal/bootstrap"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/split"
)

// scanBench wraps a coarse-tree skeleton built once by a sampling phase,
// ready for repeated cleanup scans over the same source. Benchmarks and
// scan-equivalence tests need the scan in isolation, which means
// resetting the scan statistics between passes instead of rebuilding the
// whole tree; the reset is exact (see resetScanState), so every pass
// reproduces the same statistics.
type scanBench struct {
	tree *Tree
	src  data.Source
	root *bnode
}

// newScanBench runs the sampling phase of a Build (sample, bootstrap,
// skeleton, discretizations) and returns the skeleton ready for cleanup
// scans. Close it to release the skeleton's buffers.
func newScanBench(src data.Source, cfg Config) (*scanBench, error) {
	n, err := data.CountTuples(src)
	if err != nil {
		return nil, err
	}
	if cfg, err = cfg.withDefaults(n); err != nil {
		return nil, err
	}
	t := &Tree{
		cfg:    cfg,
		schema: src.Schema(),
		budget: data.NewMemBudget(cfg.MemBudgetTuples),
		met:    newMetricSet(cfg.Metrics),
		log:    resolveLogger(cfg.Logger),
	}
	t.impurityBased, _ = cfg.Method.(split.ImpurityBased)
	t.momentBased, _ = cfg.Method.(split.MomentBased)
	sample, err := data.ReservoirSample(src, cfg.SampleSize, cfg.newRNG())
	if err != nil {
		return nil, err
	}
	coarse, _, err := bootstrap.BuildCoarse(t.schema, sample, bootstrap.Config{
		Trees:         cfg.BootstrapTrees,
		SubsampleSize: cfg.SubsampleSize,
		WidenFraction: cfg.WidenFraction,
		TreeConfig:    t.bootstrapGrowConfig(n),
		Seed:          cfg.Seed + 104729*t.seedCounter.Add(1),
		Parallelism:   cfg.workers(),
	})
	if err != nil {
		return nil, err
	}
	return &scanBench{tree: t, src: src, root: t.skeletonFromCoarse(coarse, sample, 0)}, nil
}

// Reset zeroes every scan statistic and buffer, preparing the skeleton
// for another pass.
func (b *scanBench) Reset() error { return resetScanState(b.root) }

// Close releases the skeleton's buffers (spill files, arenas).
func (b *scanBench) Close() { closeSubtree(b.root) }

// runOnce performs one cleanup-scan pass over a skeleton that must be
// freshly built or Reset, returning the tuples seen: the chunk router
// pass a Build-driven scan runs, without the storage-fault retry.
func (b *scanBench) runOnce() (int64, error) {
	return b.tree.scanPass(b.src, b.root, nil)
}

// rowScan is the row-at-a-time cleanup scan (one root-to-stick descent
// per tuple via Tree.route): the oracle the chunked scans are checked
// against. Tuples are cloned before routing because the buffers keep
// the slices they are given.
func (t *Tree) rowScan(src data.Source, root *bnode) (int64, error) {
	var seen int64
	err := data.ForEach(src, func(tp data.Tuple) error {
		seen++
		return t.route(root, tp.Clone(), +1)
	})
	return seen, err
}

// BenchmarkCleanupScan times one cleanup-scan pass over the Fig-4/F1
// workload. The generator output is materialized up front so the
// benchmark measures the scan, not synthetic data generation. The
// skeleton is built once; passes are separated by an exact statistic
// reset that runs outside the timer. Parallelism follows GOMAXPROCS, so
// `-cpu 1` times the in-line router and larger -cpu values its forked
// descents.
func BenchmarkCleanupScan(b *testing.B) {
	const n = 200000
	gsrc := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, n, 42)
	tuples, err := data.ReadAll(gsrc)
	if err != nil {
		b.Fatal(err)
	}
	src := data.NewMemSource(gsrc.Schema(), tuples)
	bench, err := newScanBench(src, Config{
		Method: split.NewGini(), MaxDepth: 6, MinSplit: 50,
		SampleSize: 2000, Seed: 7, TempDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer bench.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := bench.Reset(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		seen, err := bench.runOnce()
		if err != nil {
			b.Fatal(err)
		}
		if seen != n {
			b.Fatalf("saw %d tuples, want %d", seen, n)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
}
