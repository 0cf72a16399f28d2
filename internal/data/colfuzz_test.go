package data

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// colFuzzSeeds builds the seed corpus for FuzzColFileOpen: well-formed
// files of several block geometries plus torn and bit-flipped variants,
// so the mutator starts from inputs that reach deep into the decoder
// instead of dying at the magic check.
func colFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	dir := tb.TempDir()
	write := func(name string, n, blockRows int) []byte {
		path := filepath.Join(dir, name)
		cw, err := CreateColFile(path, colTestSchema(), blockRows)
		if err != nil {
			tb.Fatal(err)
		}
		for _, tu := range colTestTuples(n) {
			if err := cw.Append(tu); err != nil {
				tb.Fatal(err)
			}
		}
		if err := cw.Close(); err != nil {
			tb.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		return raw
	}
	// Small files keep every input short: the fuzzer spends up to
	// -fuzzminimizetime shrinking each input that finds new coverage, in
	// time that grows with the square of the input's length.
	v2 := write("v2.boatc", 40, 16)
	seeds := [][]byte{v2, write("one-block.boatc", 40, 64), write("tiny.boatc", 1, 8)}
	// Torn variants: cut mid-header, mid-block, mid-index, mid-footer.
	for _, cut := range []int{4, 40, len(v2) / 2, len(v2) - 40, len(v2) - 9, len(v2) - 1} {
		if cut > 0 && cut < len(v2) {
			seeds = append(seeds, v2[:cut])
		}
	}
	// Bit flips: header, block body, CRC, offset index, footer.
	for _, off := range []int{9, 30, 120, len(v2) / 2, len(v2) - 44, len(v2) - 20} {
		if off >= 0 && off < len(v2) {
			flipped := append([]byte(nil), v2...)
			flipped[off] ^= 0x40
			seeds = append(seeds, flipped)
		}
	}
	// A retired version-1 header, rejected at open.
	v1 := append([]byte(nil), v2...)
	v1[len(colMagic)] = 1
	seeds = append(seeds, v1, []byte(colMagic), []byte("BOATCOLFxxxxxx"), nil)
	return seeds
}

// fuzzScanAll drains one chunked scan, enforcing the post-open error
// contract: every failure after a successful OpenColFile must be a
// *BlockError (whose cause is typically ErrColTruncated or
// ErrColChecksum), never a panic, a hang, or an untyped error. Returns
// the rows seen and whether the scan completed cleanly.
func fuzzScanAll(t *testing.T, label string, csc ChunkScanner, width, blockRows int) (int64, bool) {
	t.Helper()
	defer csc.Close()
	ch := NewChunk(width, blockRows)
	var rows int64
	for i := 0; ; i++ {
		if i > 1<<20 {
			t.Fatalf("%s: scan did not terminate", label)
		}
		ch.Reset()
		err := csc.NextChunk(ch)
		if err == io.EOF {
			return rows, true
		}
		if err != nil {
			var be *BlockError
			if !errors.As(err, &be) {
				t.Fatalf("%s: scan error is not a *BlockError: %v", label, err)
			}
			return rows, false
		}
		rows += int64(ch.Len())
	}
}

// FuzzColFileOpen feeds arbitrary bytes through OpenColFile and both
// scan paths (synchronous and pipelined). Opening may fail with any
// descriptive error; once open succeeds, the invariants are: scans
// terminate, post-open failures are typed *BlockError values, and both
// scan paths, when they complete, see the same number of rows.
func FuzzColFileOpen(f *testing.F) {
	for _, s := range colFuzzSeeds(f) {
		f.Add(s)
	}
	// One file per fuzz process, rewritten by every input: a fresh temp
	// directory per input costs more than the whole open-and-scan.
	path := filepath.Join(f.TempDir(), "fuzz.boatc")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<20 {
			return
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Skip(err)
		}
		s, err := OpenColFile(path)
		if err != nil {
			return // any open error is acceptable; panics are not
		}
		if s.Blocks() < 0 || s.BlockRows() <= 0 {
			t.Fatalf("open accepted impossible geometry: %d blocks x %d rows", s.Blocks(), s.BlockRows())
		}
		width := len(s.Schema().Attributes)

		sync, err := s.ScanChunksPipeline(PipelineConfig{Depth: -1})
		var syncRows int64
		syncOK := false
		if err == nil {
			syncRows, syncOK = fuzzScanAll(t, "sync", sync, width, s.BlockRows())
		}
		piped, err := s.ScanChunksPipeline(PipelineConfig{Depth: 2, Workers: 2})
		if err == nil {
			if rows, ok := fuzzScanAll(t, "pipelined", piped, width, s.BlockRows()); ok && syncOK && rows != syncRows {
				t.Fatalf("pipelined scan saw %d rows, sync saw %d", rows, syncRows)
			}
		}
	})
}

// blockFuzzSeeds builds the FuzzBlockDecode corpus: encoded blocks
// covering every segment encoding (const, u8/u16/u32 deltas, raw with
// NaN) plus mutated variants.
func blockFuzzSeeds() [][]byte {
	mk := func(fill func(i int) ([]float64, int)) []byte {
		ch := NewChunk(3, 64)
		for i := 0; i < 64; i++ {
			vals, cls := fill(i)
			ch.AppendTuple(Tuple{Values: vals, Class: cls})
		}
		return encodeBlock(nil, ch)
	}
	full := mk(func(i int) ([]float64, int) {
		return []float64{1000 + float64(i%200), float64(i % 8), 0.5 * float64(i)}, i % 3
	})
	konst := mk(func(i int) ([]float64, int) {
		return []float64{7, 1, 7}, 0
	})
	nan := mk(func(i int) ([]float64, int) {
		v := float64(i)
		if i%9 == 0 {
			v = math.NaN()
		}
		return []float64{v, float64(i % 4), 1e9 + float64(i)}, i % 3
	})
	seeds := [][]byte{full, konst, nan, nil, []byte{1, 0, 0, 0}}
	for _, off := range []int{0, 3, 5, 6, 20, len(full) / 2, len(full) - 1} {
		if off >= 0 && off < len(full) {
			flipped := append([]byte(nil), full...)
			flipped[off] ^= 0x10
			seeds = append(seeds, flipped)
		}
	}
	return seeds
}

// FuzzBlockDecode feeds arbitrary bytes to the block-body decoder (the
// stage after the CRC gate, so it must also survive checksum-valid but
// crafted bodies): it must return an error or a well-formed chunk whose
// class labels are within the schema's range — never panic or index out
// of bounds.
func FuzzBlockDecode(f *testing.F) {
	for _, s := range blockFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		const maxRows, width, classes = 64, 3, 3
		dst := NewChunk(width, maxRows)
		zones := make([]ColZone, width)
		if err := decodeBlockInto(body, maxRows, dst, zones, classes); err != nil {
			return
		}
		if dst.Len() <= 0 || dst.Len() > maxRows {
			t.Fatalf("decode accepted %d rows (cap %d)", dst.Len(), maxRows)
		}
		for _, c := range dst.Classes() {
			if c < 0 || int(c) >= classes {
				t.Fatalf("decode accepted out-of-range class label %d", c)
			}
		}
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/ when BOAT_WRITE_FUZZ_CORPUS=1 — the same seeds f.Add
// registers, persisted in `go test fuzz v1` format so CI's fuzz smoke
// starts from them without a generation step.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("BOAT_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set BOAT_WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	write := func(target string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("FuzzColFileOpen", colFuzzSeeds(t))
	write("FuzzBlockDecode", blockFuzzSeeds())
}
