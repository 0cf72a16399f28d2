package iostats

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
)

func testSchema() *data.Schema {
	return data.MustSchema([]data.Attribute{
		{Name: "x", Kind: data.Numeric},
		{Name: "y", Kind: data.Numeric},
	}, 2)
}

func testTuples(n int) []data.Tuple {
	out := make([]data.Tuple, n)
	for i := range out {
		out[i] = data.Tuple{Values: []float64{float64(i), 0}, Class: i % 2}
	}
	return out
}

func TestTrackedCountsScansAndTuples(t *testing.T) {
	var st Stats
	src := Tracked(data.NewMemSource(testSchema(), testTuples(2500)), &st)
	for pass := 0; pass < 3; pass++ {
		if _, err := data.CountTuples(src); err != nil {
			t.Fatal(err)
		}
	}
	// Count is known without scanning for MemSource, so force scans.
	for pass := 0; pass < 3; pass++ {
		var n int64
		if err := data.ForEach(src, func(data.Tuple) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 2500 {
			t.Fatalf("scan saw %d tuples", n)
		}
	}
	if st.Scans() != 3 {
		t.Errorf("Scans = %d, want 3", st.Scans())
	}
	if st.TuplesRead() != 7500 {
		t.Errorf("TuplesRead = %d, want 7500", st.TuplesRead())
	}
	wantBytes := int64(7500) * int64(data.FormatWide.TupleSize(testSchema()))
	if st.BytesRead() != wantBytes {
		t.Errorf("BytesRead = %d, want %d", st.BytesRead(), wantBytes)
	}
}

func TestTrackedNilStatsPassthrough(t *testing.T) {
	src := data.NewMemSource(testSchema(), testTuples(10))
	if Tracked(src, nil) != data.Source(src) {
		t.Error("nil stats should return the source unchanged")
	}
}

func TestTrackedFileUsesRecordSize(t *testing.T) {
	path := t.TempDir() + "/d.boat"
	if _, err := data.WriteFile(path, data.NewMemSource(testSchema(), testTuples(100)), data.FormatCompact); err != nil {
		t.Fatal(err)
	}
	fs, err := data.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	src := Tracked(fs, &st)
	if err := data.ForEach(src, func(data.Tuple) error { return nil }); err != nil {
		t.Fatal(err)
	}
	want := int64(100) * int64(data.FormatCompact.TupleSize(testSchema())) // 12 bytes/tuple
	if st.BytesRead() != want {
		t.Errorf("BytesRead = %d, want %d (compact record size)", st.BytesRead(), want)
	}
}

func TestSnapshotSubAndReset(t *testing.T) {
	var st Stats
	st.RecordScan()
	st.RecordRead(10, 100)
	st.RecordSpill(5, 50)
	a := st.Snapshot()
	st.RecordScan()
	st.RecordRead(10, 100)
	d := st.Snapshot().Sub(a)
	if d.Scans != 1 || d.TuplesRead != 10 || d.BytesRead != 100 || d.SpillTuples != 0 {
		t.Errorf("delta = %+v", d)
	}
	if s := d.String(); s == "" {
		t.Error("empty String")
	}
	st.Reset()
	if z := st.Snapshot(); z != (Snapshot{}) {
		t.Errorf("after reset: %+v", z)
	}
}

func TestNilStatsMethodsSafe(t *testing.T) {
	var s *Stats
	s.RecordScan()
	s.RecordRead(1, 1)
	s.RecordSpill(1, 1)
	s.RecordPhysRead(1)
	s.RecordSpillRetry()
	s.RecordSpillError()
	s.RecordScanFallback()
	s.RecordScanRetry()
	if s.Snapshot() != (Snapshot{}) {
		t.Error("nil stats snapshot should be zero")
	}
}

// TestConcurrentRecording pins down the concurrency contract the parallel
// build phases rely on: Stats methods may be called from many goroutines
// (per-worker spill buffers, concurrent leaf rebuilds scanning tracked
// sources) without losing counts. Run under -race this also proves the
// counters are data-race free.
func TestConcurrentRecording(t *testing.T) {
	var st Stats
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				st.RecordScan()
				st.RecordRead(2, 80)
				st.RecordSpill(1, 40)
				st.RecordSpillRetry()
				st.RecordScanFallback()
				_ = st.Snapshot()
			}
		}()
	}
	wg.Wait()
	want := Snapshot{
		Scans:       workers * perWorker,
		TuplesRead:  2 * workers * perWorker,
		BytesRead:   80 * workers * perWorker,
		SpillTuples: workers * perWorker,
		SpillBytes:  40 * workers * perWorker,

		SpillRetries:  workers * perWorker,
		ScanFallbacks: workers * perWorker,
	}
	if got := st.Snapshot(); got != want {
		t.Fatalf("lost updates: got %v, want %v", got, want)
	}
}

// TestConcurrentTrackedScans scans one tracked source from several
// goroutines at once, as the sharded cleanup scan's nested rebuilds do.
func TestConcurrentTrackedScans(t *testing.T) {
	var st Stats
	src := Tracked(data.NewMemSource(testSchema(), testTuples(500)), &st)
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n int64
			if err := data.ForEach(src, func(data.Tuple) error { n++; return nil }); err != nil {
				errs <- err
				return
			}
			if n != 500 {
				errs <- fmt.Errorf("scan saw %d tuples, want 500", n)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := st.Scans(); got != workers {
		t.Fatalf("recorded %d scans, want %d", got, workers)
	}
	if got := st.TuplesRead(); got != workers*500 {
		t.Fatalf("recorded %d tuples, want %d", got, workers*500)
	}
}

// drainChunks consumes a chunked scan over src and returns the rows seen.
func drainChunks(t *testing.T, src data.Source) int64 {
	t.Helper()
	sc, err := src.ScanChunks()
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	chunk := data.NewChunk(len(src.Schema().Attributes), 256)
	var n int64
	for {
		chunk.Reset()
		err := sc.NextChunk(chunk)
		n += int64(chunk.Len())
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestTrackedChunkedScans verifies the chunked scan path records scans,
// tuples and bytes for each source kind: in-memory (columnar mirror),
// file (native chunked reader, file record size) and generator.
func TestTrackedChunkedScans(t *testing.T) {
	schema := testSchema()
	mem := data.NewMemSource(schema, testTuples(1000))

	path := t.TempDir() + "/d.boat"
	if _, err := data.WriteFile(path, mem, data.FormatCompact); err != nil {
		t.Fatal(err)
	}
	file, err := data.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}

	g := gen.MustSource(gen.Config{Function: 1}, 1000, 5)

	cases := []struct {
		name      string
		src       data.Source
		wantBytes int64
	}{
		{"mem", mem, 1000 * int64(data.FormatWide.TupleSize(schema))},
		{"file", file, 1000 * int64(data.FormatCompact.TupleSize(schema))},
		{"gen", g, 1000 * int64(data.FormatWide.TupleSize(g.Schema()))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var st Stats
			src := Tracked(tc.src, &st)
			if n := drainChunks(t, src); n != 1000 {
				t.Fatalf("chunked scan saw %d rows, want 1000", n)
			}
			if st.Scans() != 1 {
				t.Errorf("Scans = %d, want 1", st.Scans())
			}
			if st.TuplesRead() != 1000 {
				t.Errorf("TuplesRead = %d, want 1000", st.TuplesRead())
			}
			if st.BytesRead() != tc.wantBytes {
				t.Errorf("BytesRead = %d, want %d", st.BytesRead(), tc.wantBytes)
			}
		})
	}
}

// TestTrackedGenRowScan covers the generator source through ForEach, which
// gathers rows from the tracked chunk scan.
func TestTrackedGenRowScan(t *testing.T) {
	var st Stats
	src := Tracked(gen.MustSource(gen.Config{Function: 1}, 750, 11), &st)
	var n int64
	if err := data.ForEach(src, func(data.Tuple) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 750 || st.TuplesRead() != 750 || st.Scans() != 1 {
		t.Fatalf("rows=%d TuplesRead=%d Scans=%d, want 750/750/1", n, st.TuplesRead(), st.Scans())
	}
}

// errChunkSource fills its rows into dst and returns a terminal error in
// the same NextChunk call, like a reader hitting corruption after a final
// partial chunk.
type errChunkSource struct {
	schema *data.Schema
	tuples []data.Tuple
	err    error
}

func (s *errChunkSource) Schema() *data.Schema { return s.schema }
func (s *errChunkSource) Count() (int64, bool) { return 0, false }
func (s *errChunkSource) ScanChunks() (data.ChunkScanner, error) {
	return &errChunkScanner{tuples: s.tuples, err: s.err}, nil
}

type errChunkScanner struct {
	tuples []data.Tuple
	err    error
}

func (s *errChunkScanner) NextChunk(dst *data.Chunk) error {
	for _, tu := range s.tuples {
		dst.AppendTuple(tu)
	}
	s.tuples = nil
	return s.err
}

func (s *errChunkScanner) Close() error { return nil }

// TestTrackedCountsRowsDeliveredWithError pins down the accounting fix:
// rows handed back together with a terminal error were still read and
// must be counted.
func TestTrackedCountsRowsDeliveredWithError(t *testing.T) {
	boom := errors.New("disk error")
	base := &errChunkSource{schema: testSchema(), tuples: testTuples(7), err: boom}

	t.Run("chunks", func(t *testing.T) {
		var st Stats
		src := Tracked(base, &st)
		cs, err := src.ScanChunks()
		if err != nil {
			t.Fatal(err)
		}
		chunk := data.NewChunk(len(base.schema.Attributes), 64)
		err = cs.NextChunk(chunk)
		if chunk.Len() != 7 || !errors.Is(err, boom) {
			t.Fatalf("NextChunk = (%d rows, %v), want 7 rows with the terminal error", chunk.Len(), err)
		}
		if st.TuplesRead() != 7 {
			t.Fatalf("TuplesRead = %d, want 7 (final chunk delivered with error)", st.TuplesRead())
		}
	})
}

// TestSnapshotAdd: Add is the counter-wise sum over every field and the
// inverse of Sub.
func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{
		Scans: 1, TuplesRead: 2, BytesRead: 3, SpillTuples: 4, SpillBytes: 5,
		SpillRetries: 6, SpillErrors: 7, ScanFallbacks: 8, ScanRetries: 9,
	}
	b := Snapshot{
		Scans: 100, TuplesRead: 200, BytesRead: 300, SpillTuples: 400, SpillBytes: 500,
		SpillRetries: 600, SpillErrors: 700, ScanFallbacks: 800, ScanRetries: 900,
	}
	want := Snapshot{
		Scans: 101, TuplesRead: 202, BytesRead: 303, SpillTuples: 404, SpillBytes: 505,
		SpillRetries: 606, SpillErrors: 707, ScanFallbacks: 808, ScanRetries: 909,
	}
	if got := a.Add(b); got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
	if got := a.Add(b).Sub(b); got != a {
		t.Errorf("Add/Sub round-trip = %+v, want %+v", got, a)
	}
	if got := a.Sub(a); got != (Snapshot{}) {
		t.Errorf("a.Sub(a) = %+v, want zero", got)
	}
}

// TestSnapshotString: failure counters appear only when non-zero, so the common all-healthy snapshot stays one short line.
func TestSnapshotString(t *testing.T) {
	clean := Snapshot{Scans: 2, TuplesRead: 10, BytesRead: 400}.String()
	if strings.Contains(clean, "spillRetries") {
		t.Errorf("clean snapshot shows failure counters: %q", clean)
	}
	faulty := Snapshot{Scans: 1, SpillRetries: 3, ScanFallbacks: 1}.String()
	if !strings.Contains(faulty, "spillRetries=3") || !strings.Contains(faulty, "scanFallbacks=1") {
		t.Errorf("faulty snapshot hides failure counters: %q", faulty)
	}
}

// TestTrackedPhysVsLogicalBytes pins the two-counter contract: row files
// store exactly what they deliver (physical == logical), while the
// block-compressed columnar format reads fewer filesystem bytes than the
// decoded tuple bytes it delivers, which CompressionRatio exposes.
func TestTrackedPhysVsLogicalBytes(t *testing.T) {
	schema := testSchema()
	tuples := testTuples(4000) // small-int values -> narrow column encodings
	dir := t.TempDir()

	rowPath := dir + "/d.boat"
	if _, err := data.WriteFile(rowPath, data.NewMemSource(schema, tuples), data.FormatCompact); err != nil {
		t.Fatal(err)
	}
	colPath := dir + "/d.boatc"
	if _, err := data.WriteColFile(colPath, data.NewMemSource(schema, tuples), 512); err != nil {
		t.Fatal(err)
	}

	t.Run("row", func(t *testing.T) {
		fs, err := data.OpenFile(rowPath)
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		if n := drainChunks(t, Tracked(fs, &st)); n != 4000 {
			t.Fatalf("scan saw %d rows", n)
		}
		snap := st.Snapshot()
		if snap.PhysBytesRead != snap.BytesRead {
			t.Fatalf("row file: phys %d != logical %d", snap.PhysBytesRead, snap.BytesRead)
		}
	})

	t.Run("columnar", func(t *testing.T) {
		cs, err := data.OpenColFile(colPath)
		if err != nil {
			t.Fatal(err)
		}
		var st Stats
		if n := drainChunks(t, Tracked(cs, &st)); n != 4000 {
			t.Fatalf("scan saw %d rows", n)
		}
		snap := st.Snapshot()
		if snap.PhysBytesRead == 0 || snap.PhysBytesRead >= snap.BytesRead {
			t.Fatalf("columnar: phys %d, logical %d — want 0 < phys < logical", snap.PhysBytesRead, snap.BytesRead)
		}
		if r := snap.CompressionRatio(); r <= 1 {
			t.Fatalf("CompressionRatio = %.2f, want > 1", r)
		}
		// The physical counter tracks what actually crossed the filesystem:
		// header + payload, never more than the file itself.
		if fi, err := os.Stat(colPath); err == nil && snap.PhysBytesRead > fi.Size() {
			t.Fatalf("phys %d exceeds file size %d", snap.PhysBytesRead, fi.Size())
		}
	})
}
