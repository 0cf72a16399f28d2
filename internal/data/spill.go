package data

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
)

// SpillRecorder receives accounting callbacks when a buffer overflows its
// memory budget and writes tuples to temporary storage. iostats.Stats
// implements it (and FaultRecorder, its failure/retry extension).
type SpillRecorder interface {
	RecordSpill(tuples, bytes int64)
}

// MemBudget is a shared in-memory tuple budget. Spill buffers attached to
// the same budget collectively hold at most Limit tuples in memory; beyond
// that they overflow to temporary files. A nil *MemBudget means unlimited
// memory; Limit == 0 also means unlimited; Limit < 0 means zero capacity
// (every tuple spills — used by Split for the surplus slices of a budget
// smaller than the worker count). All methods are safe for concurrent use,
// so buffers owned by different worker goroutines may share one budget.
//
// This models the paper's low run-time memory requirement: the sets S_n of
// tuples inside the confidence intervals are kept in memory when possible
// and written to temporary files otherwise (Section 3.3).
type MemBudget struct {
	Limit int64

	mu   sync.Mutex
	used int64
}

// NewMemBudget returns a budget of limit tuples (0 = unlimited,
// negative = zero capacity).
func NewMemBudget(limit int64) *MemBudget { return &MemBudget{Limit: limit} }

func (b *MemBudget) tryAcquire(n int64) bool {
	if b == nil || b.Limit == 0 {
		return true
	}
	if b.Limit < 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.used+n > b.Limit {
		return false
	}
	b.used += n
	return true
}

// acquireUpTo acquires as many of n tuples as the budget allows in one
// locked step and returns the count. The greedy in-order semantics match
// a loop of tryAcquire(1): the first `acquired` tuples of a batch stay in
// memory and the rest spill — exactly the split a per-tuple append
// sequence would produce, so batch appends do not change what spills.
func (b *MemBudget) acquireUpTo(n int64) int64 {
	if b == nil || b.Limit == 0 {
		return n
	}
	if b.Limit < 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	avail := b.Limit - b.used
	if avail > n {
		avail = n
	}
	if avail < 0 {
		avail = 0
	}
	b.used += avail
	return avail
}

func (b *MemBudget) release(n int64) {
	if b == nil || b.Limit <= 0 {
		return
	}
	b.mu.Lock()
	b.used -= n
	if b.used < 0 {
		b.used = 0
	}
	b.mu.Unlock()
}

// Used returns the tuples currently held in memory against the budget.
func (b *MemBudget) Used() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Split carves the budget into n independent per-worker slices whose
// limits sum to exactly the parent limit, so n workers filling private
// buffers concurrently can never exceed the global budget between them.
// The remainder is distributed one tuple at a time to the first Limit%n
// slices; when Limit < n the surplus slices get zero capacity (every
// append spills) rather than oversubscribing the parent. An unlimited
// (or nil) budget yields unlimited slices.
func (b *MemBudget) Split(n int) []*MemBudget {
	if n < 1 {
		n = 1
	}
	out := make([]*MemBudget, n)
	if b == nil || b.Limit <= 0 {
		return out // nil slices: unlimited
	}
	per := b.Limit / int64(n)
	extra := b.Limit % int64(n)
	for i := range out {
		lim := per
		if int64(i) < extra {
			lim++
		}
		if lim == 0 {
			lim = -1 // zero capacity, NOT unlimited
		}
		out[i] = NewMemBudget(lim)
	}
	return out
}

// SpillEnv bundles the resources a spill buffer writes through: the
// overflow directory, the shared memory budget, the accounting recorder,
// the filesystem (nil = the real one) and the transient-error retry
// policy. The zero value is valid: unlimited memory, os.TempDir overflow,
// no accounting, default retries.
type SpillEnv struct {
	// Dir is the directory for temporary overflow files ("" = os.TempDir).
	Dir string
	// Budget is the shared in-memory tuple budget (nil = unlimited).
	Budget *MemBudget
	// Rec receives spill accounting (and, if it implements FaultRecorder,
	// failure/retry accounting); may be nil.
	Rec SpillRecorder
	// FS is the filesystem to write through (nil = OsFS).
	FS FS
	// Retry bounds retry-with-backoff for transient storage errors.
	Retry RetryPolicy
	// Log, when non-nil, receives structured records for spill-path
	// anomalies: a warning per transient-error retry and an error when a
	// fault survives the retry policy and poisons the buffer.
	Log *slog.Logger
}

func (e SpillEnv) fs() FS { return fsOrDefault(e.FS) }

// ---------------------------------------------------------------------------
// spillWriter

// spillFlushBytes is the buffered-bytes threshold that triggers a flush to
// the overflow file.
const spillFlushBytes = 1 << 16

// spillWriter buffers encoded tuples and writes them to the overflow file
// with transient-error retry. Unlike bufio.Writer, a failed flush keeps
// the unwritten suffix buffered and tracks exactly how many bytes are
// durable, so the file never holds a torn tuple that a later append or
// scan would decode misaligned: file[0:durable] + buf is always a whole
// number of tuples.
type spillWriter struct {
	f         File
	retry     RetryPolicy
	rec       SpillRecorder // spill accounting (durable bytes only)
	frec      FaultRecorder // retry/failure accounting
	log       *slog.Logger  // may be nil
	tupleSize int

	buf      []byte
	durable  int64 // bytes successfully written to f
	reported int64 // whole tuples already reported to rec
}

// append buffers one encoded tuple and flushes once the buffer is full.
func (w *spillWriter) append(p []byte) error {
	w.buf = append(w.buf, p...)
	if len(w.buf) >= spillFlushBytes {
		return w.flush()
	}
	return nil
}

// flush writes the buffered bytes to the file, retrying transient errors
// with exponential backoff. Whatever could not be written stays buffered;
// spill accounting covers only bytes that durably reached the file.
func (w *spillWriter) flush() error {
	p := w.retry.withDefaults()
	backoff := p.Backoff
	tries := 0
	for len(w.buf) > 0 {
		n, err := w.f.Write(w.buf)
		if n > 0 {
			w.durable += int64(n)
			if w.rec != nil {
				whole := w.durable / int64(w.tupleSize)
				if whole > w.reported {
					w.rec.RecordSpill(whole-w.reported, int64(n))
					w.reported = whole
				}
			}
			w.buf = w.buf[:copy(w.buf, w.buf[n:])]
		}
		if err == nil {
			tries = 0
			continue
		}
		if !IsTransient(err) || tries >= p.Attempts-1 {
			if w.frec != nil {
				w.frec.RecordSpillError()
			}
			if w.log != nil {
				w.log.Error("spill write failed permanently; buffer poisoned",
					"file", w.f.Name(), "err", err, "tries", tries+1)
			}
			return &SpillError{Op: "write", Err: err}
		}
		tries++
		if w.frec != nil {
			w.frec.RecordSpillRetry()
		}
		if w.log != nil {
			w.log.Warn("transient spill write fault; retrying",
				"file", w.f.Name(), "err", err, "try", tries, "backoff", backoff)
		}
		p.Sleep(backoff)
		backoff *= 2
	}
	return nil
}

// ---------------------------------------------------------------------------
// SpillBuffer

// SpillBuffer accumulates tuples in memory up to a shared budget and spills
// the overflow to a temporary file. It implements Source, so a spilled
// buffer can be scanned (and even used as the training database of a
// recursive BOAT invocation).
//
// Failure semantics: a write failure that survives the retry policy
// poisons the buffer — later Appends are refused with a SpillError
// wrapping ErrSpillPoisoned — but everything appended before the failure
// (including the tuple whose flush failed, which stays buffered in memory)
// remains scannable, and Close always releases the memory budget and
// removes the overflow file. Reset also recovers a poisoned buffer for
// reuse, provided the file can be truncated.
type SpillBuffer struct {
	schema *Schema
	env    SpillEnv
	// The in-memory part is stored as columnar chunks, free of pointers:
	// no per-tuple Tuple struct or Values header is kept, so the garbage
	// collector never scans the buffer and appends issue no write
	// barriers. Chunks fill sequentially (every chunk before the active
	// one is full); batch appends and scans copy column-wise.
	memChunks []*Chunk
	active    int // index of the chunk receiving appends
	memN      int // in-memory row count
	file      File
	w         *spillWriter
	encBuf    []byte
	spilled   int64
	poisoned  error
	closed    bool
}

// spillChunkRows is the row capacity of each in-memory storage chunk.
const spillChunkRows = 1024

// memRows returns the in-memory row count.
func (sb *SpillBuffer) memRows() int { return sb.memN }

// tail returns the chunk the next append lands in, with room for at least
// one row.
func (sb *SpillBuffer) tail() *Chunk {
	if len(sb.memChunks) == 0 {
		sb.memChunks = append(sb.memChunks, NewChunk(len(sb.schema.Attributes), spillChunkRows))
		sb.active = 0
	}
	c := sb.memChunks[sb.active]
	if c.Full() {
		sb.active++
		if sb.active == len(sb.memChunks) {
			sb.memChunks = append(sb.memChunks, NewChunk(len(sb.schema.Attributes), spillChunkRows))
		}
		c = sb.memChunks[sb.active]
	}
	return c
}

// NewSpillBuffer creates an empty buffer over the real filesystem with
// default retries. dir is the directory for the temporary overflow file
// ("" = os.TempDir()); budget and rec may be nil.
func NewSpillBuffer(schema *Schema, dir string, budget *MemBudget, rec SpillRecorder) *SpillBuffer {
	return NewSpillBufferEnv(schema, SpillEnv{Dir: dir, Budget: budget, Rec: rec})
}

// NewSpillBufferEnv creates an empty buffer writing through env.
func NewSpillBufferEnv(schema *Schema, env SpillEnv) *SpillBuffer {
	return &SpillBuffer{schema: schema, env: env}
}

// Schema implements Source.
func (sb *SpillBuffer) Schema() *Schema { return sb.schema }

// Count implements Source.
func (sb *SpillBuffer) Count() (int64, bool) { return sb.Len(), true }

// Len returns the number of buffered tuples.
func (sb *SpillBuffer) Len() int64 { return int64(sb.memRows()) + sb.spilled }

// SpilledTuples returns how many tuples live in the overflow path (file
// plus the not-yet-durable write buffer).
func (sb *SpillBuffer) SpilledTuples() int64 { return sb.spilled }

// Err returns the poison cause if an overflow write failed for good, nil
// otherwise. A poisoned buffer refuses Append but remains scannable.
func (sb *SpillBuffer) Err() error { return sb.poisoned }

// Append copies t into the buffer (into the arena, or the overflow path
// once memory is exhausted).
func (sb *SpillBuffer) Append(t Tuple) error {
	if sb.closed {
		return errors.New("data: append to closed spill buffer")
	}
	if len(t.Values) != len(sb.schema.Attributes) {
		return ErrSchemaMismatch
	}
	if sb.file == nil && sb.env.Budget.tryAcquire(1) {
		sb.tail().AppendTuple(t)
		sb.memN++
		return nil
	}
	return sb.spill(t)
}

// AppendChunkRow copies row r of ch into the buffer straight from the
// chunk columns, without materializing an intermediate Tuple.
func (sb *SpillBuffer) AppendChunkRow(ch *Chunk, r int) error {
	if sb.closed {
		return errors.New("data: append to closed spill buffer")
	}
	if ch.Width() != len(sb.schema.Attributes) {
		return ErrSchemaMismatch
	}
	if sb.file == nil && sb.env.Budget.tryAcquire(1) {
		sb.tail().AppendRowOf(ch, r)
		sb.memN++
		return nil
	}
	if err := sb.spillCheck(); err != nil {
		return err
	}
	sb.encBuf = encodeChunkRow(sb.encBuf[:0], FormatWide, ch, r)
	sb.spillEncoded()
	return nil
}

// AppendChunkRows copies the chunk rows named by idx (all rows when idx is
// nil) into the buffer. The in-memory portion is copied column-wise in
// bulk; whatever the memory budget refuses spills row by row, split at
// exactly the row a per-row append sequence would have spilled from.
func (sb *SpillBuffer) AppendChunkRows(ch *Chunk, idx []int32) error {
	if sb.closed {
		return errors.New("data: append to closed spill buffer")
	}
	if ch.Width() != len(sb.schema.Attributes) {
		return ErrSchemaMismatch
	}
	n := ch.Len()
	if idx != nil {
		n = len(idx)
	}
	if n == 0 {
		return nil
	}
	take := 0
	if sb.file == nil {
		take = int(sb.env.Budget.acquireUpTo(int64(n)))
		pos := 0
		for pos < take {
			t := sb.tail()
			m := t.Cap() - t.Len()
			if rest := take - pos; m > rest {
				m = rest
			}
			if idx == nil {
				t.AppendFrom(ch, pos, m)
			} else {
				t.AppendGather(ch, idx[pos:pos+m])
			}
			pos += m
		}
		sb.memN += take
		if take == n {
			return nil
		}
	}
	for i := take; i < n; i++ {
		r := i
		if idx != nil {
			r = int(idx[i])
		}
		if err := sb.spillCheck(); err != nil {
			return err
		}
		sb.encBuf = encodeChunkRow(sb.encBuf[:0], FormatWide, ch, r)
		sb.spillEncoded()
	}
	return nil
}

// spillCheck refuses appends on a poisoned buffer and lazily creates the
// overflow file.
func (sb *SpillBuffer) spillCheck() error {
	if sb.poisoned != nil {
		return &SpillError{Op: "append", Err: fmt.Errorf("%w: %w", ErrSpillPoisoned, sb.poisoned)}
	}
	if sb.file == nil {
		fs := sb.env.fs()
		frec := faultRecorderOf(sb.env.Rec)
		var f File
		err := sb.env.Retry.Do(frec, func() error {
			var cerr error
			f, cerr = fs.CreateTemp(sb.env.Dir, "boat-spill-*.tmp")
			return cerr
		})
		if err != nil {
			if frec != nil {
				frec.RecordSpillError()
			}
			return &SpillError{Op: "create", Err: err}
		}
		registerTemp(f.Name())
		sb.file = f
		sb.w = &spillWriter{
			f:         f,
			retry:     sb.env.Retry,
			rec:       sb.env.Rec,
			frec:      frec,
			log:       sb.env.Log,
			tupleSize: FormatWide.TupleSize(sb.schema),
		}
	}
	return nil
}

func (sb *SpillBuffer) spill(t Tuple) error {
	if err := sb.spillCheck(); err != nil {
		return err
	}
	sb.encBuf = encodeTuple(sb.encBuf[:0], FormatWide, t)
	sb.spillEncoded()
	return nil
}

// spillEncoded hands sb.encBuf to the overflow writer. A write failure
// does not fail the append — the tuple itself is retained (a failed flush
// keeps the unwritten suffix buffered), so the append still succeeds
// logically; what is lost is the ability to keep writing. The buffer is
// poisoned so the next append fails fast instead of growing memory
// unboundedly.
func (sb *SpillBuffer) spillEncoded() {
	if err := sb.w.append(sb.encBuf); err != nil {
		sb.poisoned = err
	}
	sb.spilled++
}

// ScanChunks implements Source: the in-memory chunks are copied
// column-wise, then the spilled part is decoded from the overflow path.
// The buffer must not be appended to while a scan is open. Scans never
// require a flush — they read the durable file prefix and replay the
// write buffer — so even a poisoned buffer yields its complete, correctly
// aligned contents.
func (sb *SpillBuffer) ScanChunks() (ChunkScanner, error) {
	if sb.closed {
		return nil, errors.New("data: scan of closed spill buffer")
	}
	sc := &spillChunkScanner{mem: sb.memChunks}
	if sb.w != nil && sb.spilled > 0 {
		var parts []io.Reader
		var closer io.Closer
		if sb.w.durable > 0 {
			var f io.ReadCloser
			err := sb.env.Retry.Do(faultRecorderOf(sb.env.Rec), func() error {
				var oerr error
				f, oerr = sb.env.fs().Open(sb.file.Name())
				return oerr
			})
			if err != nil {
				return nil, &SpillError{Op: "open", Err: err}
			}
			parts = append(parts, io.LimitReader(f, sb.w.durable))
			closer = f
		}
		if len(sb.w.buf) > 0 {
			parts = append(parts, bytes.NewReader(sb.w.buf))
		}
		sc.file = &fileChunkScanner{
			c:         closer,
			r:         bufio.NewReaderSize(io.MultiReader(parts...), 1<<18),
			format:    FormatWide,
			tupleSize: FormatWide.TupleSize(sb.schema),
			remaining: sb.spilled,
		}
	}
	return sc, nil
}

// spillChunkScanner fills each destination chunk from the in-memory storage
// chunks first and the overflow decoder after them.
type spillChunkScanner struct {
	mem  []*Chunk // storage chunks not yet fully delivered
	pos  int      // rows of mem[0] already delivered
	file *fileChunkScanner
}

func (s *spillChunkScanner) NextChunk(dst *Chunk) error {
	start := dst.Len()
	for len(s.mem) > 0 && !dst.Full() {
		c := s.mem[0]
		n := min(dst.Cap()-dst.Len(), c.Len()-s.pos)
		dst.AppendFrom(c, s.pos, n)
		if s.pos += n; s.pos >= c.Len() {
			s.mem, s.pos = s.mem[1:], 0
		}
	}
	if len(s.mem) == 0 && !dst.Full() && s.file != nil {
		if err := s.file.NextChunk(dst); err != nil && err != io.EOF {
			return &SpillError{Op: "scan", Err: err}
		}
	}
	if dst.Len() == start {
		return io.EOF
	}
	return nil
}

func (s *spillChunkScanner) Close() error {
	if s.file != nil {
		err := s.file.Close()
		s.file = nil
		return err
	}
	return nil
}

// Reset discards the contents, releasing memory budget and truncating the
// overflow file (which is kept open for reuse). Resetting also clears the
// poisoned state: after a successful Reset the buffer accepts appends
// again. If the file cannot be truncated the buffer stays poisoned.
func (sb *SpillBuffer) Reset() error {
	sb.env.Budget.release(int64(sb.memRows()))
	// The storage chunks are kept: the buffer is typically refilled to a
	// similar size after a reset (re-scans, repeated benchmark passes),
	// and retaining the pointer-free chunks avoids re-growing from scratch.
	for _, c := range sb.memChunks {
		c.Reset()
	}
	sb.active, sb.memN = 0, 0
	if sb.file != nil {
		if err := sb.file.Truncate(0); err != nil {
			sb.poisoned = err
			return &SpillError{Op: "truncate", Err: err}
		}
		if _, err := sb.file.Seek(0, io.SeekStart); err != nil {
			sb.poisoned = err
			return &SpillError{Op: "truncate", Err: err}
		}
		sb.w.buf = sb.w.buf[:0]
		sb.w.durable = 0
		sb.w.reported = 0
	}
	sb.spilled = 0
	sb.poisoned = nil
	return nil
}

// Close releases all resources including the overflow file. It always
// frees the memory budget, and retries transient removal failures so that
// error paths provably clean up what they created; the file is only left
// behind (and stays in the temp registry) if removal fails for good.
func (sb *SpillBuffer) Close() error {
	if sb.closed {
		return nil
	}
	sb.closed = true
	sb.env.Budget.release(int64(sb.memRows()))
	sb.memChunks, sb.active, sb.memN = nil, 0, 0
	if sb.file == nil {
		return nil
	}
	name := sb.file.Name()
	var firstErr error
	if err := sb.file.Close(); err != nil {
		firstErr = &SpillError{Op: "close", Err: err}
	}
	sb.file = nil
	sb.w = nil
	fs := sb.env.fs()
	frec := faultRecorderOf(sb.env.Rec)
	err := sb.env.Retry.Do(frec, func() error { return fs.Remove(name) })
	if err != nil {
		if frec != nil {
			frec.RecordSpillError()
		}
		if firstErr == nil {
			firstErr = &SpillError{Op: "remove", Err: err}
		}
		return firstErr
	}
	unregisterTemp(name)
	return firstErr
}
