package data

import (
	"errors"
	"fmt"
	"testing"
)

func makeTuples(n int) []Tuple {
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{Values: []float64{float64(i), float64(i % 4)}, Class: i % 2}
	}
	return out
}

func TestMemSourceScan(t *testing.T) {
	s := twoAttrSchema(t)
	for _, n := range []int{0, 1, 1023, 1024, 1025, 3000, DefaultChunkRows - 1, DefaultChunkRows, DefaultChunkRows + 1} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			src := NewMemSource(s, makeTuples(n))
			if c, ok := src.Count(); !ok || c != int64(n) {
				t.Fatalf("Count = %d,%v", c, ok)
			}
			var seen int
			err := ForEach(src, func(tp Tuple) error {
				if int(tp.Values[0]) != seen {
					t.Fatalf("tuple %d out of order: %v", seen, tp)
				}
				seen++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if seen != n {
				t.Errorf("saw %d tuples, want %d", seen, n)
			}
		})
	}
}

func TestMemSourceRescannable(t *testing.T) {
	src := NewMemSource(twoAttrSchema(t), makeTuples(100))
	for pass := 0; pass < 3; pass++ {
		n, err := CountTuples(src)
		if err != nil || n != 100 {
			t.Fatalf("pass %d: count %d err %v", pass, n, err)
		}
	}
}

func TestForEachStopsOnError(t *testing.T) {
	src := NewMemSource(twoAttrSchema(t), makeTuples(100))
	boom := errors.New("boom")
	var seen int
	err := ForEach(src, func(Tuple) error {
		seen++
		if seen == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if seen != 10 {
		t.Errorf("callback invoked %d times, want 10", seen)
	}
}

func TestReadAllDeepCopies(t *testing.T) {
	orig := makeTuples(5)
	src := NewMemSource(twoAttrSchema(t), orig)
	got, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	got[0].Values[0] = 999
	if orig[0].Values[0] == 999 {
		t.Error("ReadAll returned shared backing arrays")
	}
}

func TestConcatSource(t *testing.T) {
	s := twoAttrSchema(t)
	a := NewMemSource(s, makeTuples(10))
	b := NewMemSource(s, makeTuples(5))
	c, err := NewConcatSource(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := c.Count(); !ok || n != 15 {
		t.Fatalf("Count = %d,%v", n, ok)
	}
	var seen int
	if err := ForEach(c, func(Tuple) error { seen++; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != 15 {
		t.Errorf("saw %d, want 15", seen)
	}
}

func TestConcatSourceSchemaMismatch(t *testing.T) {
	a := NewMemSource(twoAttrSchema(t), nil)
	other := MustSchema([]Attribute{{Name: "z", Kind: Numeric}}, 2)
	b := NewMemSource(other, nil)
	if _, err := NewConcatSource(a, b); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("err = %v, want schema mismatch", err)
	}
	if _, err := NewConcatSource(); err == nil {
		t.Error("empty concat should error")
	}
}

func TestCountTuplesScansWhenUnknown(t *testing.T) {
	src := &unknownCountSource{inner: NewMemSource(twoAttrSchema(t), makeTuples(42))}
	n, err := CountTuples(src)
	if err != nil || n != 42 {
		t.Fatalf("count = %d err = %v", n, err)
	}
}

// unknownCountSource hides its count to exercise the scanning fallback.
type unknownCountSource struct{ inner Source }

func (u *unknownCountSource) Schema() *Schema                   { return u.inner.Schema() }
func (u *unknownCountSource) Count() (int64, bool)              { return 0, false }
func (u *unknownCountSource) ScanChunks() (ChunkScanner, error) { return u.inner.ScanChunks() }
