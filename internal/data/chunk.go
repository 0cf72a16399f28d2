package data

import (
	"io"
	"math"
	"sync"
)

// Chunk is a columnar (structure-of-arrays) batch of tuples: one flat
// []float64 backing array holding every attribute column contiguously,
// plus an []int32 class column. The cleanup scan and the batched count
// kernels (CatAVC.AddBatch, Histogram.AddBatch, NumMoments.AddBatch)
// operate on chunks instead of individual Tuples, which removes the
// per-tuple allocation and per-tuple virtual-call overhead of the
// row-at-a-time path and keeps each kernel's working set (one attribute
// column plus one statistic) hot across thousands of rows.
//
// Layout: attribute a's column occupies vals[a*stride : a*stride+n] where
// stride is the chunk's row capacity, so Col(a) is a contiguous slice.
// A Chunk costs exactly two allocations regardless of capacity and is
// reusable via Reset; ChunkPool recycles chunks across scans.
type Chunk struct {
	width  int
	stride int
	n      int
	vals   []float64
	class  []int32

	// zones, when zoneRows == n, summarize every row per column (min/max,
	// NaN presence, categorical code bitmap). Only the columnar block-file
	// scan paths populate them — rows appended by anything else leave
	// zoneRows behind n, which invalidates the summaries. See ColZone.
	zones    []ColZone
	zoneRows int
}

// DefaultChunkRows is the row capacity used by the built-in chunked scan
// paths when the caller does not choose one.
const DefaultChunkRows = 4096

// NewChunk allocates an empty chunk for tuples of the given width
// (attribute count) with capacity rows.
func NewChunk(width, rows int) *Chunk {
	if width < 1 {
		width = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Chunk{
		width:  width,
		stride: rows,
		vals:   make([]float64, width*rows),
		class:  make([]int32, rows),
	}
}

// Len returns the number of rows currently held.
func (c *Chunk) Len() int { return c.n }

// Cap returns the row capacity.
func (c *Chunk) Cap() int { return c.stride }

// Width returns the attribute count.
func (c *Chunk) Width() int { return c.width }

// Full reports whether the chunk is at capacity.
func (c *Chunk) Full() bool { return c.n >= c.stride }

// Reset empties the chunk, keeping its storage.
func (c *Chunk) Reset() { c.n, c.zoneRows = 0, 0 }

// Col returns attribute a's column: one value per row, contiguous.
func (c *Chunk) Col(a int) []float64 { return c.vals[a*c.stride : a*c.stride+c.n] }

// Classes returns the class-label column (one code per row).
func (c *Chunk) Classes() []int32 { return c.class[:c.n] }

// Value returns the value of attribute a in row r.
func (c *Chunk) Value(r, a int) float64 { return c.vals[a*c.stride+r] }

// Class returns the class label of row r.
func (c *Chunk) Class(r int) int { return int(c.class[r]) }

// AppendTuple transposes one row-major tuple into the columns. The chunk
// must not be full.
func (c *Chunk) AppendTuple(t Tuple) {
	r := c.n
	for a, v := range t.Values {
		c.vals[a*c.stride+r] = v
	}
	c.class[r] = int32(t.Class)
	c.n++
}

// AppendRow transposes one row of raw values into the columns. The chunk
// must not be full; len(vals) must equal Width.
func (c *Chunk) AppendRow(vals []float64, class int) {
	r := c.n
	for a, v := range vals {
		c.vals[a*c.stride+r] = v
	}
	c.class[r] = int32(class)
	c.n++
}

// Gather copies row r's values into dst (which must have length Width).
func (c *Chunk) Gather(r int, dst []float64) {
	for a := range dst {
		dst[a] = c.vals[a*c.stride+r]
	}
}

// AppendFrom bulk-appends rows [from, from+n) of src, which must have the
// same width; the copy is one contiguous memmove per column. The chunk
// must have room for n more rows.
func (c *Chunk) AppendFrom(src *Chunk, from, n int) {
	for a := 0; a < c.width; a++ {
		copy(c.vals[a*c.stride+c.n:], src.vals[a*src.stride+from:a*src.stride+from+n])
	}
	copy(c.class[c.n:], src.class[from:from+n])
	c.n += n
}

// AppendGather appends the rows of src selected by idx, column by column:
// each column is a gathered read from one hot source column and a
// sequential write, instead of a per-row strided scatter. Same width
// required; the chunk must have room for len(idx) more rows.
func (c *Chunk) AppendGather(src *Chunk, idx []int32) {
	n := len(idx)
	for a := 0; a < c.width; a++ {
		dst := c.vals[a*c.stride+c.n : a*c.stride+c.n+n]
		col := src.vals[a*src.stride:]
		for i, r := range idx {
			dst[i] = col[r]
		}
	}
	cls := c.class[c.n : c.n+n]
	for i, r := range idx {
		cls[i] = src.class[r]
	}
	c.n += n
}

// AppendRowOf appends row r of src (same width; the chunk must not be
// full).
func (c *Chunk) AppendRowOf(src *Chunk, r int) {
	for a := 0; a < c.width; a++ {
		c.vals[a*c.stride+c.n] = src.vals[a*src.stride+r]
	}
	c.class[c.n] = src.class[r]
	c.n++
}

// TupleCopy returns a freshly allocated row-major copy of row r.
func (c *Chunk) TupleCopy(r int) Tuple {
	vals := make([]float64, c.width)
	c.Gather(r, vals)
	return Tuple{Values: vals, Class: c.Class(r)}
}

// GatherRows returns row-major copies of the rows named by idx (all rows
// when idx is nil). All copies share one backing array — one allocation
// for the batch instead of one per row — and the transpose runs column by
// column: sequential (or gathered) reads from each hot source column
// instead of a strided scatter per row.
func (c *Chunk) GatherRows(idx []int32) []Tuple {
	n := c.n
	if idx != nil {
		n = len(idx)
	}
	if n == 0 {
		return nil
	}
	w := c.width
	backing := make([]float64, n*w)
	for a := 0; a < w; a++ {
		col := c.vals[a*c.stride:]
		if idx == nil {
			for r := 0; r < n; r++ {
				backing[r*w+a] = col[r]
			}
		} else {
			for j, r := range idx {
				backing[j*w+a] = col[r]
			}
		}
	}
	out := make([]Tuple, n)
	if idx == nil {
		for r := range out {
			out[r] = Tuple{Values: backing[r*w : (r+1)*w : (r+1)*w], Class: int(c.class[r])}
		}
	} else {
		for j, r := range idx {
			out[j] = Tuple{Values: backing[j*w : (j+1)*w : (j+1)*w], Class: int(c.class[r])}
		}
	}
	return out
}

// HashRows computes Tuple.Hash64 for the rows named by idx (all rows when
// idx is nil), reusing dst's capacity. The hashes are bit-identical to
// hashing each row's materialized Tuple — same FNV-1a byte walk, same NaN
// canonicalization — but evaluated column by column: the ~8 dependent
// multiplies per value then belong to independent per-row chains that the
// pipeline overlaps, where the row-major walk serializes them. The batch
// removal paths of TupleBag lean on this for their bucket keys.
func (c *Chunk) HashRows(dst []uint64, idx []int32) []uint64 {
	const offset64 = 14695981039346656037
	n := c.n
	if idx != nil {
		n = len(idx)
	}
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	for j := range dst {
		dst[j] = offset64
	}
	for a := 0; a < c.width; a++ {
		col := c.vals[a*c.stride:]
		if idx == nil {
			for r := 0; r < n; r++ {
				v := col[r]
				b := math.Float64bits(v)
				if v != v {
					b = canonicalNaNBits
				}
				dst[r] = fnvMix(dst[r], b)
			}
		} else {
			for j, r := range idx {
				v := col[r]
				b := math.Float64bits(v)
				if v != v {
					b = canonicalNaNBits
				}
				dst[j] = fnvMix(dst[j], b)
			}
		}
	}
	if idx == nil {
		for r := 0; r < n; r++ {
			dst[r] = fnvMix(dst[r], uint64(int(c.class[r])))
		}
	} else {
		for j, r := range idx {
			dst[j] = fnvMix(dst[j], uint64(int(c.class[r])))
		}
	}
	return dst
}

// fnvMix folds one 64-bit word into an FNV-1a state byte-wise, exactly as
// Tuple.Hash64 does (low byte first).
func fnvMix(h, b uint64) uint64 {
	const prime64 = 1099511628211
	h = (h ^ (b & 0xff)) * prime64
	h = (h ^ (b >> 8 & 0xff)) * prime64
	h = (h ^ (b >> 16 & 0xff)) * prime64
	h = (h ^ (b >> 24 & 0xff)) * prime64
	h = (h ^ (b >> 32 & 0xff)) * prime64
	h = (h ^ (b >> 40 & 0xff)) * prime64
	h = (h ^ (b >> 48 & 0xff)) * prime64
	h = (h ^ (b >> 56 & 0xff)) * prime64
	return h
}

// ---------------------------------------------------------------------------
// Zone maps

// ColZone is a per-column summary (a "zone map") of a row range: the
// min/max over non-NaN values, whether any NaN occurred, and — for
// columns whose every value is an integer code in [0, 64) — a presence
// bitmap of those codes. The columnar block file stores one ColZone per
// column per block; the routing scans use them to send an entire chunk
// down one side of a split without running the per-row partition kernel.
//
// The summaries over-approximate: a zone valid for a row set is valid for
// any subset of it, so a routing decision made from a chunk's zone holds
// at every depth of the chunk's descent.
type ColZone struct {
	// Min and Max bound every non-NaN value; meaningful only when Valid.
	Min, Max float64
	// Codes is the presence bitmap of integer codes; meaningful only when
	// CodesValid.
	Codes uint64
	// HasNaN reports whether any value is NaN (exact when Valid).
	HasNaN bool
	// Valid reports that Min/Max/HasNaN describe the rows (at least one
	// non-NaN value was seen).
	Valid bool
	// CodesValid reports that every value is an integer in [0, 64) and
	// present in Codes.
	CodesValid bool
}

// merge widens z to also cover everything o covers.
func (z *ColZone) merge(o ColZone) {
	if z.Valid && o.Valid {
		if o.Min < z.Min {
			z.Min = o.Min
		}
		if o.Max > z.Max {
			z.Max = o.Max
		}
	} else {
		z.Valid = false
	}
	z.HasNaN = z.HasNaN || o.HasNaN
	z.Codes |= o.Codes
	z.CodesValid = z.CodesValid && o.CodesValid
}

// Zone returns the zone summary of attribute a and whether it covers
// every row currently in the chunk. It reports false whenever any row was
// appended without an accompanying AbsorbZones call (the summaries would
// under-approximate), so consumers can rely on a true result uncondition-
// ally.
func (c *Chunk) Zone(a int) (ColZone, bool) {
	if c.n == 0 || c.zoneRows != c.n || a < 0 || a >= len(c.zones) {
		return ColZone{}, false
	}
	z := c.zones[a]
	return z, z.Valid || z.CodesValid
}

// AbsorbZones merges per-column summaries covering the rows appended
// since the chunk held prevLen rows. If other rows arrived without
// summaries, zone tracking for this fill is abandoned (until Reset).
// len(z) must be at least Width.
func (c *Chunk) AbsorbZones(z []ColZone, prevLen int) {
	if prevLen != c.zoneRows || len(z) < c.width {
		c.zoneRows = -1
		return
	}
	if len(c.zones) < c.width {
		c.zones = make([]ColZone, c.width)
	}
	if prevLen == 0 {
		copy(c.zones, z[:c.width])
	} else {
		for a := 0; a < c.width; a++ {
			c.zones[a].merge(z[a])
		}
	}
	c.zoneRows = c.n
}

// AbsorbZonesFrom merges src's zone summaries (which must cover all of
// src) for rows appended from it since the chunk held prevLen rows.
func (c *Chunk) AbsorbZonesFrom(src *Chunk, prevLen int) {
	if src.n == 0 || src.zoneRows != src.n || len(src.zones) < src.width {
		c.zoneRows = -1
		return
	}
	c.AbsorbZones(src.zones, prevLen)
}

// ChunkPool recycles chunks of one fixed geometry. It is safe for
// concurrent use; the sharded cleanup scan's dealer gets chunks from the
// pool and the routing workers put them back once merged.
type ChunkPool struct {
	width, rows int
	pool        sync.Pool
}

// NewChunkPool creates a pool of width×rows chunks.
func NewChunkPool(width, rows int) *ChunkPool {
	if rows < 1 {
		rows = DefaultChunkRows
	}
	return &ChunkPool{width: width, rows: rows}
}

// Rows returns the row capacity of the pool's chunks.
func (p *ChunkPool) Rows() int { return p.rows }

// Get returns an empty chunk (recycled if available).
func (p *ChunkPool) Get() *Chunk {
	if c, ok := p.pool.Get().(*Chunk); ok {
		c.Reset()
		return c
	}
	return NewChunk(p.width, p.rows)
}

// Put recycles a chunk obtained from Get.
func (p *ChunkPool) Put(c *Chunk) {
	if c != nil {
		p.pool.Put(c)
	}
}

// ---------------------------------------------------------------------------
// Chunked scanning

// ChunkScanner iterates a dataset sequentially in columnar chunks.
// NextChunk fills the caller-supplied (empty) chunk with up to Cap rows
// and returns io.EOF once the scan is exhausted; because the caller owns
// the chunk storage, chunked scans hand over batches without copying them
// a second time.
type ChunkScanner interface {
	// NextChunk appends up to dst.Cap()-dst.Len() rows into dst. It
	// returns io.EOF (with dst unchanged) once the source is exhausted;
	// a partial fill is not an error.
	NextChunk(dst *Chunk) error
	Close() error
}

// ForEachChunk scans src once in chunks of the given row capacity,
// invoking fn for every non-empty chunk. The chunk (and its columns) is
// only valid during the call; it is reused between invocations. A source
// that knows it holds fewer rows gets a chunk of just that capacity, so
// iterating a small bag does not allocate a full-size chunk.
func ForEachChunk(src Source, rows int, fn func(*Chunk) error) error {
	sc, err := src.ScanChunks()
	if err != nil {
		return err
	}
	defer sc.Close()
	if n, ok := src.Count(); ok && n < int64(rows) {
		rows = int(n)
	}
	ch := NewChunk(len(src.Schema().Attributes), rows)
	for {
		ch.Reset()
		err := sc.NextChunk(ch)
		if err == io.EOF {
			return sc.Close()
		}
		if err != nil {
			sc.Close()
			return err
		}
		if ch.Len() == 0 {
			continue
		}
		if err := fn(ch); err != nil {
			sc.Close()
			return err
		}
	}
}
