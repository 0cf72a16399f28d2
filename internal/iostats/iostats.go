// Package iostats provides hardware-independent cost accounting for the
// experimental evaluation: the number of sequential scans started over the
// training database, tuples and bytes read, and tuples and bytes written to
// temporary storage.
//
// The BOAT paper's headline result — several tree levels per database scan
// instead of one scan per level — is architecture-independent, so scan and
// tuple counts are the primary reproduction metric alongside wall-clock
// time.
package iostats

import (
	"fmt"
	"sync/atomic"

	"github.com/boatml/boat/internal/data"
)

// Stats accumulates I/O counters. All methods are safe for concurrent use.
// The zero value is ready to use.
type Stats struct {
	scans       atomic.Int64
	tuplesRead  atomic.Int64
	bytesRead   atomic.Int64
	physBytes   atomic.Int64
	spillTuples atomic.Int64
	spillBytes  atomic.Int64

	// Failure/retry accounting for the hardened spill path.
	spillRetries  atomic.Int64
	spillErrors   atomic.Int64
	scanFallbacks atomic.Int64
	scanRetries   atomic.Int64
}

// RecordScan notes the start of one sequential scan over a tracked source.
func (s *Stats) RecordScan() {
	if s != nil {
		s.scans.Add(1)
	}
}

// RecordRead notes tuples/bytes delivered by a tracked scan.
func (s *Stats) RecordRead(tuples, bytes int64) {
	if s != nil {
		s.tuplesRead.Add(tuples)
		s.bytesRead.Add(bytes)
	}
}

// RecordPhysRead notes bytes that actually crossed the filesystem
// boundary. Distinct from RecordRead's logical tuple bytes: a compressed
// columnar block delivers more tuple bytes than it reads, so the two
// counters diverge exactly by the compression the on-disk format bought.
func (s *Stats) RecordPhysRead(bytes int64) {
	if s != nil {
		s.physBytes.Add(bytes)
	}
}

// RecordSpill implements data.SpillRecorder.
func (s *Stats) RecordSpill(tuples, bytes int64) {
	if s != nil {
		s.spillTuples.Add(tuples)
		s.spillBytes.Add(bytes)
	}
}

// RecordSpillRetry implements data.FaultRecorder: one retried transient
// spill-path fault.
func (s *Stats) RecordSpillRetry() {
	if s != nil {
		s.spillRetries.Add(1)
	}
}

// RecordSpillError implements data.FaultRecorder: one spill-path operation
// that failed for good after retries.
func (s *Stats) RecordSpillError() {
	if s != nil {
		s.spillErrors.Add(1)
	}
}

// RecordScanFallback notes a sharded cleanup scan that failed on a storage
// fault and fell back to the sequential scan.
func (s *Stats) RecordScanFallback() {
	if s != nil {
		s.scanFallbacks.Add(1)
	}
}

// RecordScanRetry notes a cleanup scan restarted from scratch after a
// storage fault.
func (s *Stats) RecordScanRetry() {
	if s != nil {
		s.scanRetries.Add(1)
	}
}

// Scans returns the number of scans started.
func (s *Stats) Scans() int64 { return s.scans.Load() }

// TuplesRead returns the number of tuples read by tracked scans.
func (s *Stats) TuplesRead() int64 { return s.tuplesRead.Load() }

// BytesRead returns the logical (decoded tuple) bytes read by tracked
// scans.
func (s *Stats) BytesRead() int64 { return s.bytesRead.Load() }

// PhysBytesRead returns the physical bytes read from the filesystem by
// tracked scans.
func (s *Stats) PhysBytesRead() int64 { return s.physBytes.Load() }

// SpillTuples returns the tuples written to temporary storage.
func (s *Stats) SpillTuples() int64 { return s.spillTuples.Load() }

// SpillBytes returns the bytes written to temporary storage.
func (s *Stats) SpillBytes() int64 { return s.spillBytes.Load() }

// SpillRetries returns the transient spill-path faults that were retried.
func (s *Stats) SpillRetries() int64 { return s.spillRetries.Load() }

// SpillErrors returns the spill-path operations that failed after retries.
func (s *Stats) SpillErrors() int64 { return s.spillErrors.Load() }

// ScanFallbacks returns the sharded scans that fell back to sequential.
func (s *Stats) ScanFallbacks() int64 { return s.scanFallbacks.Load() }

// ScanRetries returns the cleanup scans restarted after storage faults.
func (s *Stats) ScanRetries() int64 { return s.scanRetries.Load() }

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.scans.Store(0)
	s.tuplesRead.Store(0)
	s.bytesRead.Store(0)
	s.physBytes.Store(0)
	s.spillTuples.Store(0)
	s.spillBytes.Store(0)
	s.spillRetries.Store(0)
	s.spillErrors.Store(0)
	s.scanFallbacks.Store(0)
	s.scanRetries.Store(0)
}

// Snapshot is an immutable copy of the counters.
type Snapshot struct {
	Scans      int64
	TuplesRead int64
	// BytesRead is the logical volume: tuples delivered times the decoded
	// per-tuple size of the source's natural encoding.
	BytesRead int64
	// PhysBytesRead is the physical volume: bytes actually read from the
	// filesystem. For uncompressed row files the two coincide; for
	// block-compressed columnar files PhysBytesRead is smaller by the
	// compression ratio.
	PhysBytesRead int64
	SpillTuples   int64
	SpillBytes    int64

	SpillRetries  int64
	SpillErrors   int64
	ScanFallbacks int64
	ScanRetries   int64
}

// CompressionRatio returns BytesRead divided by PhysBytesRead (0 when no
// physical bytes were recorded).
func (s Snapshot) CompressionRatio() float64 {
	if s.PhysBytesRead == 0 {
		return 0
	}
	return float64(s.BytesRead) / float64(s.PhysBytesRead)
}

// Snapshot copies the current counter values.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return Snapshot{
		Scans:         s.Scans(),
		TuplesRead:    s.TuplesRead(),
		BytesRead:     s.BytesRead(),
		PhysBytesRead: s.PhysBytesRead(),
		SpillTuples:   s.SpillTuples(),
		SpillBytes:    s.SpillBytes(),
		SpillRetries:  s.SpillRetries(),
		SpillErrors:   s.SpillErrors(),
		ScanFallbacks: s.ScanFallbacks(),
		ScanRetries:   s.ScanRetries(),
	}
}

// Add returns the counter-wise sum of two snapshots (for aggregating
// per-pass accounting into one total).
func (a Snapshot) Add(b Snapshot) Snapshot {
	return Snapshot{
		Scans:         a.Scans + b.Scans,
		TuplesRead:    a.TuplesRead + b.TuplesRead,
		BytesRead:     a.BytesRead + b.BytesRead,
		PhysBytesRead: a.PhysBytesRead + b.PhysBytesRead,
		SpillTuples:   a.SpillTuples + b.SpillTuples,
		SpillBytes:    a.SpillBytes + b.SpillBytes,
		SpillRetries:  a.SpillRetries + b.SpillRetries,
		SpillErrors:   a.SpillErrors + b.SpillErrors,
		ScanFallbacks: a.ScanFallbacks + b.ScanFallbacks,
		ScanRetries:   a.ScanRetries + b.ScanRetries,
	}
}

// Sub returns the counter deltas since an earlier snapshot.
func (a Snapshot) Sub(b Snapshot) Snapshot {
	return Snapshot{
		Scans:         a.Scans - b.Scans,
		TuplesRead:    a.TuplesRead - b.TuplesRead,
		BytesRead:     a.BytesRead - b.BytesRead,
		PhysBytesRead: a.PhysBytesRead - b.PhysBytesRead,
		SpillTuples:   a.SpillTuples - b.SpillTuples,
		SpillBytes:    a.SpillBytes - b.SpillBytes,
		SpillRetries:  a.SpillRetries - b.SpillRetries,
		SpillErrors:   a.SpillErrors - b.SpillErrors,
		ScanFallbacks: a.ScanFallbacks - b.ScanFallbacks,
		ScanRetries:   a.ScanRetries - b.ScanRetries,
	}
}

// String renders the snapshot compactly; failure/retry counters appear
// only when non-zero.
func (s Snapshot) String() string {
	out := fmt.Sprintf("scans=%d tuples=%d bytes=%d spillTuples=%d spillBytes=%d",
		s.Scans, s.TuplesRead, s.BytesRead, s.SpillTuples, s.SpillBytes)
	if s.PhysBytesRead != 0 && s.PhysBytesRead != s.BytesRead {
		out += fmt.Sprintf(" physBytes=%d (%.2fx)", s.PhysBytesRead, s.CompressionRatio())
	}
	if s.SpillRetries != 0 || s.SpillErrors != 0 || s.ScanFallbacks != 0 || s.ScanRetries != 0 {
		out += fmt.Sprintf(" spillRetries=%d spillErrors=%d scanFallbacks=%d scanRetries=%d",
			s.SpillRetries, s.SpillErrors, s.ScanFallbacks, s.ScanRetries)
	}
	return out
}

// Tracked wraps src so that every scan and every chunk read is recorded in
// stats. Bytes are accounted using the per-tuple size of the source's
// natural encoding (the actual file record size for file sources, the wide
// encoding otherwise).
func Tracked(src data.Source, stats *Stats) data.Source {
	if stats == nil {
		return src
	}
	tupleBytes := int64(data.FormatWide.TupleSize(src.Schema()))
	if fs, ok := src.(*data.FileSource); ok {
		tupleBytes = int64(fs.Format().TupleSize(src.Schema()))
	}
	return &trackedSource{inner: src, stats: stats, tupleBytes: tupleBytes}
}

type trackedSource struct {
	inner      data.Source
	stats      *Stats
	tupleBytes int64
}

func (t *trackedSource) Schema() *data.Schema { return t.inner.Schema() }
func (t *trackedSource) Count() (int64, bool) { return t.inner.Count() }

// ScanChunks implements data.Source: the wrapped source's chunked scan,
// with every scan and every chunk read recorded.
func (t *trackedSource) ScanChunks() (data.ChunkScanner, error) {
	sc, err := t.inner.ScanChunks()
	if err != nil {
		return nil, err
	}
	t.stats.RecordScan()
	return t.wrapChunkScanner(sc), nil
}

// ScanChunksPipeline implements data.PipelinedChunkSource: the pipeline
// configuration reaches the wrapped source, and the scan is tracked the
// same way as ScanChunks.
func (t *trackedSource) ScanChunksPipeline(cfg data.PipelineConfig) (data.ChunkScanner, error) {
	sc, err := data.ScanChunksPipelined(t.inner, cfg)
	if err != nil {
		return nil, err
	}
	t.stats.RecordScan()
	return t.wrapChunkScanner(sc), nil
}

func (t *trackedSource) wrapChunkScanner(sc data.ChunkScanner) data.ChunkScanner {
	w := &trackedChunkScanner{inner: sc, stats: t.stats, tupleBytes: t.tupleBytes}
	w.phys, _ = sc.(data.PhysicalReader)
	return w
}

type trackedChunkScanner struct {
	inner      data.ChunkScanner
	stats      *Stats
	tupleBytes int64

	// phys, when the inner scanner reports filesystem bytes, drives the
	// physical counter by delta; otherwise physical = logical (the row
	// formats store exactly what they deliver).
	phys     data.PhysicalReader
	lastPhys int64
}

// NextChunk records the rows delivered into dst even when the inner scan
// also returns an error: a scanner may hand back a final partial chunk
// together with a terminal error, and those rows were still read.
func (t *trackedChunkScanner) NextChunk(dst *data.Chunk) error {
	before := dst.Len()
	err := t.inner.NextChunk(dst)
	n := int64(dst.Len() - before)
	if n > 0 {
		t.stats.RecordRead(n, n*t.tupleBytes)
	}
	if t.phys != nil {
		if now := t.phys.PhysicalBytesRead(); now > t.lastPhys {
			t.stats.RecordPhysRead(now - t.lastPhys)
			t.lastPhys = now
		}
	} else if n > 0 {
		t.stats.RecordPhysRead(n * t.tupleBytes)
	}
	return err
}

// PipelineStats forwards the inner scanner's pipeline report (zero when
// the scan was not pipelined). Implements data.PipelineReporter.
func (t *trackedChunkScanner) PipelineStats() data.PipelineStats {
	if pr, ok := t.inner.(data.PipelineReporter); ok {
		return pr.PipelineStats()
	}
	return data.PipelineStats{}
}

func (t *trackedChunkScanner) Close() error { return t.inner.Close() }
