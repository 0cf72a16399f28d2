// Chunk-scan equivalence across every Source implementation. This test
// lives in package data_test because it also covers the sources of
// internal/gen, internal/warehouse and internal/iostats, which import
// internal/data.
package data_test

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/faultfs"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/warehouse"
)

func equivSchema() *data.Schema {
	return data.MustSchema([]data.Attribute{
		{Name: "a", Kind: data.Numeric},
		{Name: "b", Kind: data.Numeric},
	}, 2)
}

func equivTuples(n int) []data.Tuple {
	out := make([]data.Tuple, n)
	for i := range out {
		out[i] = data.Tuple{Values: []float64{float64(i) + 0.1, float64(i % 4)}, Class: i % 2}
	}
	return out
}

// scanAt drains one ScanChunks pass of src into chunks of the given row
// capacity and returns copies of the tuples it delivered.
func scanAt(src data.Source, rows int) ([]data.Tuple, error) {
	sc, err := src.ScanChunks()
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	ch := data.NewChunk(len(src.Schema().Attributes), rows)
	var out []data.Tuple
	for {
		ch.Reset()
		err := sc.NextChunk(ch)
		if err == io.EOF {
			return out, sc.Close()
		}
		if err != nil {
			return out, err
		}
		if ch.Len() > rows {
			return out, fmt.Errorf("chunk of %d rows exceeds capacity %d", ch.Len(), rows)
		}
		for r := 0; r < ch.Len(); r++ {
			out = append(out, ch.TupleCopy(r))
		}
	}
}

func sameTuples(t *testing.T, label string, got, want []data.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: tuple %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// equivCase is one source with the tuples (in order) every scan of it
// must deliver, or the error text a scan must end with.
type equivCase struct {
	src     data.Source
	want    []data.Tuple // nil: ReadAll at the default chunk size is the reference
	wantErr string
}

// TestScanChunksEquivalence: for every source kind, a chunked scan at any
// chunk size, ForEach and ReadAll all yield the same tuples in the same
// order. Sources: in-memory, both row-file formats, the spill buffer in
// memory, spilled and poisoned, a tuple bag with and without pending
// removals (and with a dangling removal, which must fail every scan),
// the concatenation, the two generators, the warehouse view and a
// tracked source.
func TestScanChunksEquivalence(t *testing.T) {
	schema := equivSchema()
	tuples := equivTuples(3000)
	mem := data.NewMemSource(schema, tuples)
	dir := t.TempDir()
	cases := map[string]equivCase{"mem": {src: mem, want: tuples}}

	for _, f := range []data.Format{data.FormatWide, data.FormatCompact} {
		path := filepath.Join(dir, fmt.Sprintf("d%d.bin", f))
		if _, err := data.WriteFile(path, mem, f); err != nil {
			t.Fatal(err)
		}
		fs, err := data.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := tuples
		if f == data.FormatCompact {
			// The compact format stores float32 values.
			want = make([]data.Tuple, len(tuples))
			for i, tp := range tuples {
				want[i] = data.Tuple{Values: []float64{float64(float32(tp.Values[0])), float64(float32(tp.Values[1]))}, Class: tp.Class}
			}
		}
		cases[fmt.Sprintf("file-format%d", f)] = equivCase{src: fs, want: want}
	}

	// Spill buffers: everything in memory; 100 rows in memory and the rest
	// in the overflow file; and poisoned, where the first flush writes
	// half its bytes and fails for good, so the scan stitches the durable
	// prefix and the unwritten suffix (appends after that are refused).
	spill := func(env data.SpillEnv, ts []data.Tuple) *data.SpillBuffer {
		sb := data.NewSpillBufferEnv(schema, env)
		t.Cleanup(func() { sb.Close() })
		for _, tp := range ts {
			if err := sb.Append(tp); err != nil && !data.IsSpillError(err) {
				t.Fatal(err)
			}
		}
		return sb
	}
	cases["spill-mem"] = equivCase{src: spill(data.SpillEnv{Dir: dir}, tuples), want: tuples}
	spilled := spill(data.SpillEnv{Dir: dir, Budget: data.NewMemBudget(100)}, tuples)
	if spilled.SpilledTuples() != int64(len(tuples)-100) {
		t.Fatalf("spilled %d tuples, want %d", spilled.SpilledTuples(), len(tuples)-100)
	}
	cases["spill-file"] = equivCase{src: spilled, want: tuples}
	// 20-byte records: 5000 tuples overflow the 64 KiB write buffer once.
	more := equivTuples(5000)
	poisoned := spill(data.SpillEnv{Dir: dir, Budget: data.NewMemBudget(100),
		FS: faultfs.New(nil, faultfs.Config{Seed: 1, WriteProb: 1})}, more)
	if poisoned.Err() == nil || poisoned.Len() <= 100 || poisoned.Len() >= int64(len(more)) {
		t.Fatalf("poisoned buffer: err %v, %d tuples", poisoned.Err(), poisoned.Len())
	}
	cases["spill-poisoned"] = equivCase{src: poisoned, want: more[:poisoned.Len()]}

	// Tuple bags: plain; with every third tuple removed (pending, not
	// compacted), half of them spilled; and with one removal that matches
	// nothing.
	bag := func(budget int64) *data.TupleBag {
		b := data.NewTupleBag(schema, dir, data.NewMemBudget(budget), nil)
		t.Cleanup(func() { b.Close() })
		for _, tp := range tuples {
			if err := b.Add(tp); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	cases["bag"] = equivCase{src: bag(0).Source(), want: tuples}
	removed := bag(int64(len(tuples) / 2))
	var kept []data.Tuple
	for i, tp := range tuples {
		if i%3 == 0 {
			if err := removed.Remove(tp); err != nil {
				t.Fatal(err)
			}
		} else {
			kept = append(kept, tp)
		}
	}
	cases["bag-removals"] = equivCase{src: removed.Source(), want: kept}
	dangling := bag(0)
	if err := dangling.Remove(data.Tuple{Values: []float64{-1, -1}, Class: 0}); err != nil {
		t.Fatal(err)
	}
	cases["bag-dangling"] = equivCase{src: dangling.Source(), wantErr: "did not match any tuple"}

	head := data.NewMemSource(schema, tuples[:1000])
	tail := data.NewMemSource(schema, tuples[1000:])
	concat, err := data.NewConcatSource(head, data.NewMemSource(schema, nil), tail)
	if err != nil {
		t.Fatal(err)
	}
	cases["concat"] = equivCase{src: concat, want: tuples}

	cases["gen"] = equivCase{src: gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 3000, 7)}
	cases["instability"] = equivCase{src: gen.InstabilitySource(3000, 7)}
	star, err := warehouse.NewStar(50, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases["warehouse"] = equivCase{src: star.TrainingView(3000, 7)}
	cases["tracked"] = equivCase{src: iostats.Tracked(mem, &iostats.Stats{}), want: tuples}

	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if c.wantErr != "" {
				requireScanErr(t, c.src, c.wantErr)
				return
			}
			want := c.want
			if want == nil {
				var err error
				if want, err = data.ReadAll(c.src); err != nil {
					t.Fatal(err)
				}
				if n, _ := c.src.Count(); int64(len(want)) != n {
					t.Fatalf("ReadAll: %d tuples, Count %d", len(want), n)
				}
			}
			for _, rows := range []int{1, 7, 64, 1024, data.DefaultChunkRows} {
				t.Run(fmt.Sprintf("rows=%d", rows), func(t *testing.T) {
					got, err := scanAt(c.src, rows)
					if err != nil {
						t.Fatal(err)
					}
					sameTuples(t, "ScanChunks", got, want)
				})
			}
			all, err := data.ReadAll(c.src)
			if err != nil {
				t.Fatal(err)
			}
			sameTuples(t, "ReadAll", all, want)
			var each []data.Tuple
			if err := data.ForEach(c.src, func(tp data.Tuple) error {
				each = append(each, tp.Clone())
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			sameTuples(t, "ForEach", each, want)
		})
	}
}

// requireScanErr checks that a chunked scan at every size, ReadAll and
// ForEach all fail with an error containing want.
func requireScanErr(t *testing.T, src data.Source, want string) {
	t.Helper()
	check := func(label string, err error) {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: err = %v, want %q", label, err, want)
		}
	}
	for _, rows := range []int{1, 7, 64, 1024, data.DefaultChunkRows} {
		_, err := scanAt(src, rows)
		check(fmt.Sprintf("rows=%d", rows), err)
	}
	_, err := data.ReadAll(src)
	check("ReadAll", err)
	check("ForEach", data.ForEach(src, func(data.Tuple) error { return nil }))
}
