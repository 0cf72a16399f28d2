package data

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestChunkColumnLayout(t *testing.T) {
	c := NewChunk(2, 4)
	if c.Width() != 2 || c.Cap() != 4 || c.Len() != 0 {
		t.Fatalf("fresh chunk geometry: width=%d cap=%d len=%d", c.Width(), c.Cap(), c.Len())
	}
	for i := 0; i < 3; i++ {
		c.AppendTuple(Tuple{Values: []float64{float64(i), float64(10 + i)}, Class: i % 2})
	}
	if c.Len() != 3 || c.Full() {
		t.Fatalf("len=%d full=%v after 3 of 4 rows", c.Len(), c.Full())
	}
	for a := 0; a < 2; a++ {
		col := c.Col(a)
		if len(col) != 3 {
			t.Fatalf("Col(%d) length %d", a, len(col))
		}
		for r, v := range col {
			want := float64(10*a + r)
			if v != want {
				t.Errorf("Col(%d)[%d] = %v, want %v", a, r, v, want)
			}
			if c.Value(r, a) != want {
				t.Errorf("Value(%d,%d) = %v, want %v", r, a, c.Value(r, a), want)
			}
		}
	}
	for r := 0; r < 3; r++ {
		if c.Class(r) != r%2 {
			t.Errorf("Class(%d) = %d", r, c.Class(r))
		}
		got := make([]float64, 2)
		c.Gather(r, got)
		if got[0] != float64(r) || got[1] != float64(10+r) {
			t.Errorf("Gather(%d) = %v", r, got)
		}
		tp := c.TupleCopy(r)
		if tp.Values[0] != float64(r) || tp.Class != r%2 {
			t.Errorf("TupleCopy(%d) = %v", r, tp)
		}
	}
	c.AppendRow([]float64{3, 13}, 1)
	if !c.Full() {
		t.Fatal("chunk should be full after 4 rows")
	}
	c.Reset()
	if c.Len() != 0 || c.Full() {
		t.Fatal("Reset did not empty the chunk")
	}
}

// collectChunks drains a chunked scan of src with the given row capacity
// into a row-major tuple slice.
func collectChunks(t *testing.T, src Source, rows int) []Tuple {
	t.Helper()
	var out []Tuple
	err := ForEachChunk(src, rows, func(ch *Chunk) error {
		if ch.Len() > rows {
			t.Fatalf("chunk of %d rows exceeds capacity %d", ch.Len(), rows)
		}
		for r := 0; r < ch.Len(); r++ {
			out = append(out, ch.TupleCopy(r))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func requireSameTuples(t *testing.T, label string, got, want []Tuple) {
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

func TestChunkPoolRecycles(t *testing.T) {
	p := NewChunkPool(2, 8)
	c := p.Get()
	c.AppendRow([]float64{1, 2}, 1)
	p.Put(c)
	got := p.Get()
	if got.Len() != 0 {
		t.Fatalf("recycled chunk not reset: len=%d", got.Len())
	}
	if got.Cap() != 8 || got.Width() != 2 {
		t.Fatalf("recycled chunk geometry: cap=%d width=%d", got.Cap(), got.Width())
	}
}

// TestReservoirSampleMatchesRowReference pins the chunked reservoir
// sampler to the row-at-a-time formulation: same source, same seed, same
// sample. The RNG must be consumed identically (one Int63n per tuple once
// the reservoir is full), or seeded builds would stop reproducing.
func TestReservoirSampleMatchesRowReference(t *testing.T) {
	schema := twoAttrSchema(t)
	src := NewMemSource(schema, makeTuples(3*DefaultChunkRows+11))
	for _, n := range []int{1, 100, 1000} {
		got, err := ReservoirSample(src, n, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}

		// Row-at-a-time reference (the pre-columnar implementation).
		rng := rand.New(rand.NewSource(42))
		var want []Tuple
		var seen int64
		err = ForEach(src, func(tp Tuple) error {
			seen++
			if len(want) < n {
				want = append(want, tp.Clone())
				return nil
			}
			j := rng.Int63n(seen)
			if j < int64(n) {
				want[j] = tp.Clone()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		requireSameTuples(t, fmt.Sprintf("n=%d", n), got, want)
	}
}

func TestHashRowsMatchesTupleHash64(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewChunk(5, 64)
	for r := 0; r < 50; r++ {
		vals := make([]float64, 5)
		for a := range vals {
			switch rng.Intn(5) {
			case 0:
				vals[a] = nan()
			case 1:
				vals[a] = -vals[a] // negative zero occasionally
			default:
				vals[a] = rng.NormFloat64() * 1e3
			}
		}
		c.AppendTuple(Tuple{Values: vals, Class: rng.Intn(4)})
	}
	check := func(idx []int32, label string) {
		hashes := c.HashRows(nil, idx)
		rows := c.GatherRows(idx)
		n := c.Len()
		if idx != nil {
			n = len(idx)
		}
		if len(hashes) != n || len(rows) != n {
			t.Fatalf("%s: got %d hashes, %d rows, want %d", label, len(hashes), len(rows), n)
		}
		for j := range hashes {
			r := j
			if idx != nil {
				r = int(idx[j])
			}
			want := c.TupleCopy(r)
			if !rows[j].Equal(want) || rows[j].Class != want.Class {
				t.Errorf("%s: GatherRows row %d = %v, want %v", label, j, rows[j], want)
			}
			if hashes[j] != want.Hash64() {
				t.Errorf("%s: HashRows row %d = %#x, want %#x", label, j, hashes[j], want.Hash64())
			}
		}
	}
	check(nil, "all rows")
	check([]int32{0, 3, 7, 7, 49, 12}, "index subset")
	// Reused destination capacity must not leak previous hashes.
	buf := c.HashRows(nil, nil)
	again := c.HashRows(buf, []int32{1, 2})
	if again[0] != c.TupleCopy(1).Hash64() || again[1] != c.TupleCopy(2).Hash64() {
		t.Error("HashRows with reused buffer produced wrong hashes")
	}
}

func nan() float64 {
	var z float64
	return z / z
}
