package data

import (
	"errors"
	"io"
	"sync"
)

// Source is a scannable training database. A Source may be scanned any
// number of times; each ScanChunks starts a fresh sequential pass,
// modeling one scan over the training database D in the paper's cost
// accounting.
type Source interface {
	// Schema describes the tuples produced by this source.
	Schema() *Schema
	// Count returns the number of tuples if known without scanning.
	Count() (n int64, known bool)
	// ScanChunks begins a new sequential scan delivering columnar chunks.
	ScanChunks() (ChunkScanner, error)
}

// ---------------------------------------------------------------------------
// In-memory source

// MemSource is an in-memory Source backed by a tuple slice. The slice is
// not copied; callers must not mutate it (or the tuples it holds) after
// the first scan — chunked scans serve from a columnar mirror built once.
type MemSource struct {
	schema *Schema
	tuples []Tuple

	mirrorOnce sync.Once
	mirror     *Chunk // columnar mirror of tuples, built on first ScanChunks
}

// NewMemSource wraps tuples as a Source.
func NewMemSource(schema *Schema, tuples []Tuple) *MemSource {
	return &MemSource{schema: schema, tuples: tuples}
}

// Schema implements Source.
func (m *MemSource) Schema() *Schema { return m.schema }

// Count implements Source.
func (m *MemSource) Count() (int64, bool) { return int64(len(m.tuples)), true }

// Tuples exposes the backing slice (read-only by convention).
func (m *MemSource) Tuples() []Tuple { return m.tuples }

// ScanChunks implements Source: chunks are served by column-wise
// copies from a columnar mirror of the tuple slice. The mirror is
// transposed once, on the first chunked scan, and amortized across every
// later pass (a build scans the source at least twice: sampling and
// cleanup).
func (m *MemSource) ScanChunks() (ChunkScanner, error) {
	m.mirrorOnce.Do(func() {
		c := NewChunk(len(m.schema.Attributes), len(m.tuples))
		for _, t := range m.tuples {
			c.AppendTuple(t)
		}
		m.mirror = c
	})
	return &memChunkScanner{mirror: m.mirror}, nil
}

type memChunkScanner struct {
	mirror *Chunk
	pos    int
}

func (s *memChunkScanner) NextChunk(dst *Chunk) error {
	total := s.mirror.Len()
	if s.pos >= total {
		return io.EOF
	}
	n := dst.Cap() - dst.Len()
	if rest := total - s.pos; n > rest {
		n = rest
	}
	dst.AppendFrom(s.mirror, s.pos, n)
	s.pos += n
	return nil
}

func (s *memChunkScanner) Close() error { return nil }

// ---------------------------------------------------------------------------
// Generated sources

// GenerateChunks returns a ChunkScanner over n generated rows: next
// writes one row's values into vals (of the given width) and returns its
// class. Rows are produced strictly in order, so a generator drawing from
// one seeded stream yields the same tuples at every chunk size.
func GenerateChunks(width int, n int64, next func(vals []float64) int) ChunkScanner {
	return &genChunkScanner{next: next, row: make([]float64, width), remaining: n}
}

type genChunkScanner struct {
	next      func([]float64) int
	row       []float64
	remaining int64
}

func (s *genChunkScanner) NextChunk(dst *Chunk) error {
	if s.remaining == 0 {
		return io.EOF
	}
	for ; s.remaining > 0 && !dst.Full(); s.remaining-- {
		class := s.next(s.row)
		dst.AppendRow(s.row, class)
	}
	return nil
}

func (s *genChunkScanner) Close() error { return nil }

// ---------------------------------------------------------------------------
// Helpers

// ForEach scans src once, invoking fn for every tuple. The tuple passed to
// fn is one reused buffer, gathered from the scan's chunk: it is only
// valid during the call.
func ForEach(src Source, fn func(Tuple) error) error {
	t := Tuple{Values: make([]float64, len(src.Schema().Attributes))}
	return ForEachChunk(src, DefaultChunkRows, func(ch *Chunk) error {
		for r := 0; r < ch.Len(); r++ {
			ch.Gather(r, t.Values)
			t.Class = ch.Class(r)
			if err := fn(t); err != nil {
				return err
			}
		}
		return nil
	})
}

// ReadAll scans src once and returns deep copies of all tuples. When the
// count is known up front the copies share one backing array; otherwise
// they share one per chunk. Either way no tuple pays its own allocation.
func ReadAll(src Source) ([]Tuple, error) {
	width := len(src.Schema().Attributes)
	var out []Tuple
	var backing []float64
	if n, ok := src.Count(); ok && n > 0 {
		out = make([]Tuple, 0, n)
		backing = make([]float64, int(n)*width)
	}
	err := ForEachChunk(src, DefaultChunkRows, func(ch *Chunk) error {
		if len(backing) < ch.Len()*width {
			out = append(out, ch.GatherRows(nil)...)
			return nil
		}
		for r := 0; r < ch.Len(); r++ {
			vals := backing[:width:width]
			backing = backing[width:]
			ch.Gather(r, vals)
			out = append(out, Tuple{Values: vals, Class: ch.Class(r)})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CountTuples scans src if necessary to determine its cardinality.
func CountTuples(src Source) (int64, error) {
	if n, ok := src.Count(); ok {
		return n, nil
	}
	var n int64
	err := ForEachChunk(src, DefaultChunkRows, func(ch *Chunk) error { n += int64(ch.Len()); return nil })
	return n, err
}

// ErrSchemaMismatch is returned when a tuple stream does not match the
// expected schema.
var ErrSchemaMismatch = errors.New("data: schema mismatch")

// ConcatSource presents several sources with identical schemas as one
// logical dataset, scanned back to back. It is used to model a training
// database combined with newly arrived chunks without materializing the
// union.
type ConcatSource struct {
	schema *Schema
	parts  []Source
}

// NewConcatSource validates that all parts share a schema and returns the
// concatenation. At least one part is required.
func NewConcatSource(parts ...Source) (*ConcatSource, error) {
	if len(parts) == 0 {
		return nil, errors.New("data: concat of zero sources")
	}
	s := parts[0].Schema()
	for _, p := range parts[1:] {
		if !s.Equal(p.Schema()) {
			return nil, ErrSchemaMismatch
		}
	}
	return &ConcatSource{schema: s, parts: parts}, nil
}

// Schema implements Source.
func (c *ConcatSource) Schema() *Schema { return c.schema }

// Count implements Source.
func (c *ConcatSource) Count() (int64, bool) {
	var total int64
	for _, p := range c.parts {
		n, ok := p.Count()
		if !ok {
			return 0, false
		}
		total += n
	}
	return total, true
}

// ScanChunks implements Source: the parts are scanned back to back, each
// with its own native chunk scan. A chunk never spans two parts.
func (c *ConcatSource) ScanChunks() (ChunkScanner, error) {
	return &concatChunkScanner{parts: c.parts}, nil
}

type concatChunkScanner struct {
	parts []Source
	idx   int
	cur   ChunkScanner
}

func (s *concatChunkScanner) NextChunk(dst *Chunk) error {
	for {
		if s.cur == nil {
			if s.idx >= len(s.parts) {
				return io.EOF
			}
			cur, err := s.parts[s.idx].ScanChunks()
			if err != nil {
				return err
			}
			s.cur = cur
			s.idx++
		}
		err := s.cur.NextChunk(dst)
		if err == io.EOF {
			if cerr := s.cur.Close(); cerr != nil {
				return cerr
			}
			s.cur = nil
			continue
		}
		return err
	}
}

func (s *concatChunkScanner) Close() error {
	if s.cur != nil {
		err := s.cur.Close()
		s.cur = nil
		return err
	}
	return nil
}
