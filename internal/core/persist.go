package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/discretize"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// Model persistence: Save serializes the complete maintained state of a
// BOAT tree — coarse criteria, cleanup statistics, histograms, moments,
// stuck sets S_n and stored leaf families — so a long-lived deployment
// (the paper's data-warehouse setting, where S_n files persist between
// update batches) can checkpoint the model and resume incremental
// maintenance after a restart. Load reverses it; the loaded tree is
// behaviorally identical: Tree(), Insert and Delete produce exactly the
// same results as on the original.

const (
	persistMagic   = "BOATMODL"
	persistVersion = 1

	nodeTagLeaf     = byte(1)
	nodeTagInternal = byte(2)
)

// Save writes the model to w. The configuration itself is not stored
// (methods are code, not data); Load verifies a fingerprint of the
// growth-relevant options and refuses mismatched configurations.
func (t *Tree) Save(w io.Writer) error {
	if t.root == nil {
		return errors.New("core: saving a closed tree")
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := io.WriteString(bw, persistMagic); err != nil {
		return err
	}
	enc := &encoder{w: bw, schema: t.schema}
	enc.u8(persistVersion)
	enc.str(t.fingerprint())
	enc.node(t.root)
	if enc.err != nil {
		return enc.err
	}
	return bw.Flush()
}

// Load reads a model saved by Save. cfg must carry the same Method and
// growth options the model was built with (verified via a fingerprint);
// resource options (TempDir, MemBudgetTuples, Stats, Seed) may differ.
// src-independent: the training data itself is not needed.
func Load(r io.Reader, schema *data.Schema, cfg Config) (*Tree, error) {
	cfg, err := cfg.withDefaults(1) // n only influences sample-size defaults
	if err != nil {
		return nil, err
	}
	budget := cfg.Budget
	if budget == nil {
		budget = data.NewMemBudget(cfg.MemBudgetTuples)
	}
	t := &Tree{
		cfg:    cfg,
		schema: schema,
		budget: budget,
		met:    newMetricSet(cfg.Metrics),
		log:    resolveLogger(cfg.Logger),
	}
	t.impurityBased, _ = cfg.Method.(split.ImpurityBased)
	t.momentBased, _ = cfg.Method.(split.MomentBased)

	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading model magic: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, errors.New("core: not a BOAT model stream")
	}
	dec := &decoder{r: br, schema: schema, t: t}
	if v := dec.u8(); v != persistVersion && dec.err == nil {
		return nil, fmt.Errorf("core: unsupported model version %d", v)
	}
	fp := dec.str()
	if dec.err == nil && fp != t.fingerprint() {
		return nil, fmt.Errorf("core: configuration fingerprint mismatch: model %q, config %q",
			fp, t.fingerprint())
	}
	root := dec.node(0)
	if dec.err != nil {
		// A partially decoded tree already owns buffers (and possibly temp
		// files); close every bag the decoder created so a failed Load
		// leaks nothing. Close is idempotent, so bags that were already
		// replaced or closed along the way are safe to re-close.
		for _, b := range dec.open {
			b.Close()
		}
		return nil, dec.err
	}
	t.root = root
	return t, nil
}

// SaveFile atomically writes the model to path: the bytes go to a
// temporary file in the destination directory, which is synced, closed
// and renamed over path, so a crash or storage fault mid-save can never
// leave a truncated model at path. Transient Create/Remove/Rename faults
// are retried under the tree's SpillRetry policy, and the temp file is
// registered in (and on success or cleanup removed from) the process-wide
// temp registry (data.LiveTempFiles).
func (t *Tree) SaveFile(path string) error {
	fs := t.cfg.FS
	if fs == nil {
		fs = data.OsFS{}
	}
	retry := t.cfg.SpillRetry
	var f data.File
	err := retry.Do(t.cfg.Stats, func() error {
		var cerr error
		f, cerr = fs.CreateTemp(filepath.Dir(path), "boat-model-*.tmp")
		return cerr
	})
	if err != nil {
		return fmt.Errorf("core: creating model temp file: %w", err)
	}
	name := f.Name()
	data.RegisterTemp(name)
	saveErr := t.Save(f)
	if saveErr == nil {
		saveErr = f.Sync()
	}
	if cerr := f.Close(); saveErr == nil {
		saveErr = cerr
	}
	if saveErr == nil {
		if saveErr = retry.Do(t.cfg.Stats, func() error { return fs.Rename(name, path) }); saveErr == nil {
			data.UnregisterTemp(name)
			return nil
		}
	}
	if rmErr := retry.Do(t.cfg.Stats, func() error { return fs.Remove(name) }); rmErr == nil {
		data.UnregisterTemp(name)
	}
	return fmt.Errorf("core: saving model to %s: %w", path, saveErr)
}

// fingerprint captures the options that determine the tree's semantics.
func (t *Tree) fingerprint() string {
	return fmt.Sprintf("method=%s minSplit=%d maxDepth=%d stop=%d/%v classes=%d attrs=%d",
		t.cfg.Method.Name(), t.cfg.MinSplit, t.cfg.MaxDepth,
		t.cfg.StopThreshold, t.cfg.StopAtThreshold,
		t.schema.ClassCount, len(t.schema.Attributes))
}

// ---------------------------------------------------------------------------
// Encoder

type encoder struct {
	w      *bufio.Writer
	schema *data.Schema
	buf    []byte
	err    error
}

func (e *encoder) u8(v byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(v)
	}
}

func (e *encoder) u64(v uint64) {
	if e.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, e.err = e.w.Write(b[:])
}

func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) bytes(b []byte) {
	e.u64(uint64(len(b)))
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) str(s string) { e.bytes([]byte(s)) }

func (e *encoder) i64s(v []int64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.i64(x)
	}
}

func (e *encoder) u64s(v []uint64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.u64(x)
	}
}

func (e *encoder) f64s(v []float64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

func (e *encoder) bag(b *data.TupleBag) {
	if e.err != nil {
		return
	}
	if b == nil {
		e.u64(0)
		return
	}
	e.u64(uint64(b.Len()))
	tupleSize := data.FormatWide.TupleSize(e.schema)
	err := b.ForEach(func(tp data.Tuple) error {
		e.buf = data.AppendTuple(e.buf[:0], data.FormatWide, tp)
		if len(e.buf) != tupleSize {
			return errors.New("core: unexpected tuple encoding size")
		}
		_, werr := e.w.Write(e.buf)
		return werr
	})
	if e.err == nil {
		e.err = err
	}
}

func (e *encoder) node(n *bnode) {
	if e.err != nil {
		return
	}
	if n.isLeaf() {
		e.u8(nodeTagLeaf)
		e.i64s(n.classCounts)
		e.i64(n.promoteAttempt)
		e.bag(n.family)
		if n.subtree != nil {
			raw, err := tree.EncodeSubtree(n.subtree, e.schema)
			if err != nil {
				e.err = err
				return
			}
			e.u8(1)
			e.bytes(raw)
		} else {
			e.u8(0)
		}
		return
	}
	e.u8(nodeTagInternal)
	e.i64s(n.classCounts)
	// Coarse criterion.
	e.i64(int64(n.coarse.attr))
	e.u8(byte(n.coarse.kind))
	e.u64(n.coarse.subset)
	e.f64(n.coarse.lo)
	e.f64(n.coarse.hi)
	// Final criterion (routing fields only; Found is implied).
	e.i64(int64(n.crit.Attr))
	e.u8(byte(n.crit.Kind))
	e.f64(n.crit.Threshold)
	e.u64(n.crit.Subset)
	e.f64(n.crit.Quality)
	e.f64(n.routedThr)
	e.i64(n.eqLow)
	e.i64s(n.lowCounts)
	e.i64s(n.highCounts)
	// Categorical counts.
	for _, cc := range n.catCounts {
		if cc == nil {
			e.u8(0)
			continue
		}
		e.u8(1)
		e.u64(uint64(len(cc.Counts)))
		for _, row := range cc.Counts {
			e.i64s(row)
		}
	}
	// Histograms.
	for _, h := range n.hist {
		if h == nil {
			e.u8(0)
			continue
		}
		e.u8(1)
		e.f64s(h.Boundaries)
		e.u64(uint64(len(h.Counts)))
		for _, row := range h.Counts {
			e.i64s(row)
		}
	}
	// Moments.
	if n.moments == nil {
		e.u8(0)
	} else {
		e.u8(1)
		e.i64s(n.moments.ClassTotals)
		for i := range e.schema.Attributes {
			if nm := n.moments.Num[i]; nm != nil {
				e.u8(1)
				e.i64s(nm.Count)
				e.i64s(nm.Sum)
				e.u64s(nm.SqHi)
				e.u64s(nm.SqLo)
			} else {
				e.u8(0)
				cc := n.moments.Cat[i]
				e.u64(uint64(len(cc.Counts)))
				for _, row := range cc.Counts {
					e.i64s(row)
				}
			}
		}
	}
	e.bag(n.pending)
	e.bag(n.pushed)
	e.node(n.left)
	e.node(n.right)
}

// ---------------------------------------------------------------------------
// Decoder

type decoder struct {
	r      *bufio.Reader
	schema *data.Schema
	t      *Tree
	buf    []byte
	err    error
	// open tracks every bag the decoder allocates, so Load can release
	// them all if decoding fails partway.
	open []*data.TupleBag
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	d.fail(err)
	return b
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	var b [8]byte
	if _, err := io.ReadFull(d.r, b[:]); err != nil {
		d.fail(err)
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) count(max uint64, what string) int {
	n := d.u64()
	if d.err == nil && n > max {
		d.fail(fmt.Errorf("core: implausible %s count %d", what, n))
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	n := d.count(1<<16, "string")
	if d.err != nil {
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.fail(err)
		return ""
	}
	return string(b)
}

func (d *decoder) bytesBlock() []byte {
	n := d.count(1<<32, "bytes")
	if d.err != nil {
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.fail(err)
		return nil
	}
	return b
}

func (d *decoder) i64s() []int64 {
	n := d.count(1<<24, "int64 slice")
	out := make([]int64, n)
	for i := range out {
		out[i] = d.i64()
	}
	return out
}

func (d *decoder) u64slice() []uint64 {
	n := d.count(1<<24, "uint64 slice")
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.u64()
	}
	return out
}

func (d *decoder) f64s() []float64 {
	n := d.count(1<<24, "float64 slice")
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *decoder) bag() *data.TupleBag {
	n := d.u64()
	bag := data.NewTupleBagEnv(d.schema, d.t.spillEnv())
	d.open = append(d.open, bag)
	if d.err != nil {
		return bag
	}
	tupleSize := data.FormatWide.TupleSize(d.schema)
	if cap(d.buf) < tupleSize {
		d.buf = make([]byte, tupleSize)
	}
	tp := data.Tuple{Values: make([]float64, len(d.schema.Attributes))}
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(d.r, d.buf[:tupleSize]); err != nil {
			d.fail(err)
			return bag
		}
		data.DecodeTupleInto(d.buf[:tupleSize], data.FormatWide, &tp)
		if err := bag.Add(tp); err != nil {
			d.fail(err)
			return bag
		}
	}
	return bag
}

func (d *decoder) node(depth int) *bnode {
	if d.err != nil {
		return nil
	}
	switch tag := d.u8(); tag {
	case nodeTagLeaf:
		n := &bnode{depth: depth, leaf: true}
		n.classCounts = d.i64s()
		n.promoteAttempt = d.i64()
		n.family = d.bag()
		if d.u8() == 1 {
			raw := d.bytesBlock()
			if d.err == nil {
				sub, err := tree.DecodeSubtree(raw, d.schema)
				d.fail(err)
				n.subtree = sub
			}
		}
		if d.err != nil {
			return nil
		}
		if len(n.classCounts) != d.schema.ClassCount {
			d.fail(errors.New("core: leaf class-count arity mismatch"))
			return nil
		}
		return n
	case nodeTagInternal:
		classCounts := d.i64s()
		c := &coarseCrit{}
		c.attr = int(d.i64())
		c.kind = data.Kind(d.u8())
		c.subset = d.u64()
		c.lo = d.f64()
		c.hi = d.f64()
		if d.err != nil {
			return nil
		}
		if c.attr < 0 || c.attr >= len(d.schema.Attributes) {
			d.fail(fmt.Errorf("core: coarse attribute %d out of range", c.attr))
			return nil
		}
		n := d.t.newInternal(depth, c)
		if n.pending != nil {
			d.open = append(d.open, n.pending, n.pushed)
		}
		n.classCounts = classCounts
		n.crit = split.Split{Found: true}
		n.crit.Attr = int(d.i64())
		n.crit.Kind = data.Kind(d.u8())
		n.crit.Threshold = d.f64()
		n.crit.Subset = d.u64()
		n.crit.Quality = d.f64()
		n.routedThr = d.f64()
		n.eqLow = d.i64()
		n.lowCounts = d.i64s()
		n.highCounts = d.i64s()
		for i, a := range d.schema.Attributes {
			if d.u8() == 0 {
				n.catCounts[i] = nil
				continue
			}
			card := d.count(data.MaxCardinality, "category")
			if d.err != nil || a.Kind != data.Categorical || card != a.Cardinality {
				d.fail(errors.New("core: categorical counts shape mismatch"))
				return nil
			}
			for code := 0; code < card; code++ {
				row := d.i64s()
				copy(n.catCounts[i].Counts[code], row)
			}
		}
		for i := range d.schema.Attributes {
			if d.u8() == 0 {
				n.hist[i] = nil
				continue
			}
			bounds := d.f64s()
			cells := d.count(1<<24, "cell")
			if d.err != nil {
				return nil
			}
			h := discretize.NewHistogram(bounds, d.schema.ClassCount)
			if cells != h.NumCells() {
				d.fail(errors.New("core: histogram cell count mismatch"))
				return nil
			}
			for cidx := 0; cidx < cells; cidx++ {
				row := d.i64s()
				copy(h.Counts[cidx], row)
			}
			n.hist[i] = h
		}
		if d.u8() == 1 {
			m := split.NewMoments(d.schema)
			m.ClassTotals = d.i64s()
			for i := range d.schema.Attributes {
				if d.u8() == 1 {
					nm := m.Num[i]
					nm.Count = d.i64s()
					nm.Sum = d.i64s()
					nm.SqHi = d.u64slice()
					nm.SqLo = d.u64slice()
				} else {
					card := d.count(data.MaxCardinality, "moment category")
					if d.err != nil {
						return nil
					}
					for code := 0; code < card; code++ {
						row := d.i64s()
						if m.Cat[i] != nil && code < len(m.Cat[i].Counts) {
							copy(m.Cat[i].Counts[code], row)
						}
					}
				}
			}
			n.moments = m
		} else {
			n.moments = nil
		}
		// newInternal allocates bags only for numeric coarse criteria;
		// replace them with the persisted contents either way.
		if n.pending != nil {
			n.pending.Close()
		}
		if n.pushed != nil {
			n.pushed.Close()
		}
		n.pending = d.bag()
		n.pushed = d.bag()
		if c.kind == data.Categorical {
			// Categorical coarse nodes have no stuck sets.
			if n.pending.Len() != 0 || n.pushed.Len() != 0 {
				d.fail(errors.New("core: categorical node with stuck tuples"))
				return nil
			}
		}
		n.left = d.node(depth + 1)
		n.right = d.node(depth + 1)
		if d.err != nil {
			return nil
		}
		return n
	default:
		d.fail(fmt.Errorf("core: unknown node tag %d", tag))
		return nil
	}
}
