// Package predict is the serving side of the repository: a parallel batch
// predictor that routes columnar chunk streams through the compiled flat
// tree layout (tree.FlatTree). It is the read-path twin of the build
// path's sharded cleanup scan — the same dealer/worker shape, the same
// pooled chunks, the same zero-allocation steady state — applied to
// classification instead of AVC aggregation.
//
// Determinism: predictions are bit-identical across every Parallelism and
// ChunkRows setting by construction. The dealer assigns each chunk an
// absolute offset into the preallocated label vector before dispatch, so
// workers write disjoint ranges of the same output regardless of
// completion order, and the routing kernel itself is deterministic.
package predict

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"time"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/eval"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/tree"
)

// Config tunes a Predictor. The zero value is usable: GOMAXPROCS workers,
// default chunk geometry, labels only.
type Config struct {
	// Parallelism is the number of routing workers. <= 0 means
	// runtime.GOMAXPROCS(0); 1 runs inline with no goroutines.
	Parallelism int
	// ChunkRows is the row capacity of the scan chunks (default
	// data.DefaultChunkRows).
	ChunkRows int
	// Compare also fills a confusion matrix against the class labels
	// carried by the source (for accuracy reporting on labeled data).
	Compare bool
	// Stats, Trace, and Metrics are optional observability sinks (all
	// nil-safe): scan I/O accounting, a "predict" span, and the
	// predict.tuples / predict.chunks / predict.tuples_per_sec
	// instruments.
	Stats   *iostats.Stats
	Trace   *obs.Tracer
	Metrics *obs.Registry
}

func (c Config) workers() int {
	if c.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallelism
}

func (c Config) chunkRows() int {
	if c.ChunkRows <= 0 {
		return data.DefaultChunkRows
	}
	return c.ChunkRows
}

// Result is one Predict call's output.
type Result struct {
	// Labels holds the predicted class of every tuple, in source order.
	Labels []int
	// Tuples and Chunks count what was scanned.
	Tuples int64
	Chunks int64
	// Seconds is the wall-clock duration; TuplesPerSec the throughput.
	Seconds      float64
	TuplesPerSec float64
	// Matrix is the confusion matrix against the source's labels, only
	// when Config.Compare is set.
	Matrix *eval.ConfusionMatrix
}

// Predictor classifies columnar chunk streams against one compiled tree.
// It is immutable after construction and safe for concurrent Predict
// calls.
type Predictor struct {
	flat   *tree.FlatTree
	cfg    Config
	pool   *data.ChunkPool
	tuples *obs.Counter
	chunks *obs.Counter
	rate   *obs.Gauge
	// latency distributes whole-Predict wall time; chunkLat distributes
	// per-chunk kernel time (the serve hot path — recorded through a
	// sharded histogram so concurrent workers never contend on a lock).
	// Both are nil when metrics are disabled, and classify skips even the
	// clock reads then, so the disabled hot loop is untouched.
	latency  *obs.LatencyHistogram
	chunkLat *obs.LatencyHistogram
}

// New compiles the tree and returns a predictor over it.
func New(t *tree.Tree, cfg Config) (*Predictor, error) {
	f, err := tree.Compile(t)
	if err != nil {
		return nil, err
	}
	return NewFlat(f, cfg), nil
}

// NewFlat wraps an already-compiled tree.
func NewFlat(f *tree.FlatTree, cfg Config) *Predictor {
	return &Predictor{
		flat:     f,
		cfg:      cfg,
		pool:     data.NewChunkPool(len(f.Schema().Attributes), cfg.chunkRows()),
		tuples:   cfg.Metrics.Counter("predict.tuples"),
		chunks:   cfg.Metrics.Counter("predict.chunks"),
		rate:     cfg.Metrics.Gauge("predict.tuples_per_sec"),
		latency:  cfg.Metrics.Latency("predict.latency"),
		chunkLat: cfg.Metrics.Latency("predict.chunk_latency"),
	}
}

// Flat returns the compiled layout the predictor routes through.
func (p *Predictor) Flat() *tree.FlatTree { return p.flat }

// workerScratch is one worker's private state: the kernel's partition
// scratch and (under Compare) a flattened k×k confusion count block that
// is merged after the workers drain — int64 adds commute, so the merged
// matrix is independent of completion order.
type workerScratch struct {
	sc     *tree.ClassifyScratch
	counts []int64
	tuples int64
	chunks int64
}

func (p *Predictor) newScratch() *workerScratch {
	s := &workerScratch{sc: tree.NewClassifyScratch()}
	if p.cfg.Compare {
		k := p.flat.Schema().ClassCount
		s.counts = make([]int64, k*k)
	}
	return s
}

// job is one dispatched chunk plus its absolute slot in the output.
type job struct {
	ch  *data.Chunk
	out []int
}

// Predict scans src once and classifies every tuple.
func (p *Predictor) Predict(src data.Source) (*Result, error) {
	if !p.flat.Schema().Equal(src.Schema()) {
		return nil, data.ErrSchemaMismatch
	}
	span := p.cfg.Trace.Start("predict")
	defer span.End()
	span.SetAttr("parallelism", p.cfg.workers())
	span.SetAttr("chunk_rows", p.cfg.chunkRows())

	if p.cfg.Stats != nil {
		src = iostats.Tracked(src, p.cfg.Stats)
	}

	start := time.Now()
	res := &Result{}
	// Preallocate the label vector when the source knows its cardinality;
	// otherwise the dealer allocates one segment per chunk and they are
	// stitched in order afterward.
	var labels []int
	var segs [][]int
	if n, ok := src.Count(); ok {
		labels = make([]int, n)
	}

	var err error
	if p.cfg.workers() <= 1 {
		err = p.predictSequential(src, labels, &segs, res)
	} else {
		err = p.predictParallel(src, labels, &segs, res)
	}
	if err != nil {
		return nil, err
	}

	if labels != nil {
		if int64(len(labels)) != res.Tuples {
			return nil, errors.New("predict: source cardinality changed mid-scan")
		}
		res.Labels = labels
	} else {
		res.Labels = make([]int, 0, res.Tuples)
		for _, s := range segs {
			res.Labels = append(res.Labels, s...)
		}
	}

	elapsed := time.Since(start)
	p.latency.Observe(elapsed)
	res.Seconds = elapsed.Seconds()
	if res.Seconds > 0 {
		res.TuplesPerSec = float64(res.Tuples) / res.Seconds
	}
	span.SetAttr("tuples", res.Tuples)
	span.SetAttr("chunks", res.Chunks)
	p.tuples.Add(res.Tuples)
	p.chunks.Add(res.Chunks)
	p.rate.Set(res.TuplesPerSec)
	return res, nil
}

// dealOut returns the output slot for the next n rows: a slice of the
// preallocated vector when cardinality was known, a fresh ordered segment
// otherwise.
func dealOut(labels []int, segs *[][]int, offset, n int) ([]int, error) {
	if labels == nil {
		seg := make([]int, n)
		*segs = append(*segs, seg)
		return seg, nil
	}
	if offset+n > len(labels) {
		return nil, errors.New("predict: source produced more tuples than its declared count")
	}
	return labels[offset : offset+n], nil
}

func (p *Predictor) predictSequential(src data.Source, labels []int, segs *[][]int, res *Result) error {
	sc, err := src.ScanChunks()
	if err != nil {
		return err
	}
	defer sc.Close()
	scratch := p.newScratch()
	ch := p.pool.Get()
	defer p.pool.Put(ch)
	offset := 0
	for {
		ch.Reset()
		err := sc.NextChunk(ch)
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		n := ch.Len()
		if n == 0 {
			continue
		}
		out, err := dealOut(labels, segs, offset, n)
		if err != nil {
			return err
		}
		p.classify(ch, out, scratch)
		offset += n
	}
	p.mergeScratch(res, scratch)
	return sc.Close()
}

func (p *Predictor) predictParallel(src data.Source, labels []int, segs *[][]int, res *Result) error {
	sc, err := src.ScanChunks()
	if err != nil {
		return err
	}
	defer sc.Close()
	w := p.cfg.workers()
	jobs := make(chan job, w)
	scratches := make([]*workerScratch, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		scratch := p.newScratch()
		scratches[i] = scratch
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				p.classify(j.ch, j.out, scratch)
				p.pool.Put(j.ch)
			}
		}()
	}
	dispatch := func() error {
		offset := 0
		for {
			ch := p.pool.Get()
			err := sc.NextChunk(ch)
			if err != nil {
				p.pool.Put(ch)
				if errors.Is(err, io.EOF) {
					return nil
				}
				return err
			}
			n := ch.Len()
			if n == 0 {
				p.pool.Put(ch)
				continue
			}
			out, err := dealOut(labels, segs, offset, n)
			if err != nil {
				p.pool.Put(ch)
				return err
			}
			jobs <- job{ch: ch, out: out}
			offset += n
		}
	}
	err = dispatch()
	close(jobs)
	wg.Wait()
	if err != nil {
		return err
	}
	for _, s := range scratches {
		p.mergeScratch(res, s)
	}
	return sc.Close()
}

// classify routes one chunk into its output slot and updates the worker's
// local accounting.
func (p *Predictor) classify(ch *data.Chunk, out []int, s *workerScratch) {
	var t0 time.Time
	if p.chunkLat != nil {
		t0 = time.Now()
	}
	p.flat.ClassifyChunkScratch(ch, out, s.sc)
	if p.chunkLat != nil {
		p.chunkLat.Observe(time.Since(t0))
	}
	if s.counts != nil {
		k := p.flat.Schema().ClassCount
		for i, c := range ch.Classes() {
			s.counts[int(c)*k+out[i]]++
		}
	}
	s.tuples += int64(ch.Len())
	s.chunks++
}

func (p *Predictor) mergeScratch(res *Result, s *workerScratch) {
	res.Tuples += s.tuples
	res.Chunks += s.chunks
	if s.counts == nil {
		return
	}
	if res.Matrix == nil {
		res.Matrix = eval.NewConfusionMatrix(p.flat.Schema().ClassCount)
	}
	k := p.flat.Schema().ClassCount
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			res.Matrix.Counts[a][b] += s.counts[a*k+b]
		}
	}
}
