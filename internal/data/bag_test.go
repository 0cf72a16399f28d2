package data

import (
	"sort"
	"strings"
	"testing"
)

func bagContents(t *testing.T, b *TupleBag) []float64 {
	t.Helper()
	var out []float64
	if err := b.ForEach(func(tp Tuple) error {
		out = append(out, tp.Values[0])
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(out)
	return out
}

func TestTupleBagAddRemove(t *testing.T) {
	b := NewTupleBag(twoAttrSchema(t), t.TempDir(), nil, nil)
	defer b.Close()
	ts := makeTuples(10)
	for _, tp := range ts {
		if err := b.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Remove(ts[3]); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove(ts[7]); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 8 {
		t.Fatalf("Len = %d, want 8", b.Len())
	}
	got := bagContents(t, b)
	want := []float64{0, 1, 2, 4, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("contents %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("contents %v, want %v", got, want)
		}
	}
}

func TestTupleBagMultiset(t *testing.T) {
	b := NewTupleBag(twoAttrSchema(t), t.TempDir(), nil, nil)
	defer b.Close()
	tp := Tuple{Values: []float64{1, 2}, Class: 0}
	for i := 0; i < 3; i++ {
		if err := b.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Remove(tp); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (multiset semantics)", b.Len())
	}
	var n int
	if err := b.ForEach(func(Tuple) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("iterated %d, want 2", n)
	}
}

func TestTupleBagRemoveThenAddCancels(t *testing.T) {
	b := NewTupleBag(twoAttrSchema(t), t.TempDir(), nil, nil)
	defer b.Close()
	tp := Tuple{Values: []float64{5, 1}, Class: 1}
	if err := b.Add(tp); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove(tp); err != nil {
		t.Fatal(err)
	}
	// Pending removal cancels against a new identical Add.
	if err := b.Add(tp); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
	if b.PendingRemovals() != 0 {
		t.Errorf("pending removals = %d, want 0 after cancellation", b.PendingRemovals())
	}
}

func TestTupleBagDanglingRemovalDetected(t *testing.T) {
	b := NewTupleBag(twoAttrSchema(t), t.TempDir(), nil, nil)
	defer b.Close()
	if err := b.Add(Tuple{Values: []float64{1, 1}, Class: 0}); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove(Tuple{Values: []float64{2, 2}, Class: 0}); err != nil {
		t.Fatal(err)
	}
	err := b.ForEach(func(Tuple) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "removal") {
		t.Fatalf("dangling removal not detected: %v", err)
	}
}

func TestTupleBagCompact(t *testing.T) {
	b := NewTupleBag(twoAttrSchema(t), t.TempDir(), NewMemBudget(4), nil)
	defer b.Close()
	ts := makeTuples(20)
	for _, tp := range ts {
		if err := b.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := b.Remove(ts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	if b.PendingRemovals() != 0 {
		t.Errorf("pending removals after compact = %d", b.PendingRemovals())
	}
	got := bagContents(t, b)
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("contents after compact: %v", got)
	}
}

func TestTupleBagSourceView(t *testing.T) {
	b := NewTupleBag(twoAttrSchema(t), t.TempDir(), nil, nil)
	defer b.Close()
	ts := makeTuples(6)
	for _, tp := range ts {
		if err := b.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Remove(ts[0]); err != nil {
		t.Fatal(err)
	}
	src := b.Source()
	if n, ok := src.Count(); !ok || n != 5 {
		t.Fatalf("source count %d,%v", n, ok)
	}
	got, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("source view returned %d tuples", len(got))
	}
}

func TestTupleBagMaterializeAndReset(t *testing.T) {
	b := NewTupleBag(twoAttrSchema(t), t.TempDir(), nil, nil)
	defer b.Close()
	for _, tp := range makeTuples(5) {
		if err := b.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := b.Materialize()
	if err != nil || len(ts) != 5 {
		t.Fatalf("materialize: %d tuples, err %v", len(ts), err)
	}
	ts[0].Values[0] = -1 // must not affect the bag
	if err := b.Reset(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("Len after reset = %d", b.Len())
	}
}

// TestTupleBagAddAllMatchesAdd: AddAll is Add on every tuple of the
// source in order — same net content, same order, same leftover pending
// removals — including cancellation against pending removals and a spill
// split mid-chunk.
func TestTupleBagAddAllMatchesAdd(t *testing.T) {
	schema := twoAttrSchema(t)
	src := make([]Tuple, 3000)
	for i := range src {
		src[i] = Tuple{Values: []float64{float64(i % 700), float64(i % 3)}, Class: i % 2}
	}
	fill := func() *TupleBag {
		b := NewTupleBag(schema, t.TempDir(), NewMemBudget(1500), nil)
		t.Cleanup(func() { b.Close() })
		for _, tp := range src[:200] {
			if err := b.Add(tp); err != nil {
				t.Fatal(err)
			}
		}
		// Removals that the added tuples cancel, plus some they never meet.
		for i := 0; i < 40; i++ {
			if err := b.Remove(src[i*17]); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Remove(Tuple{Values: []float64{-1, 0}, Class: 0}); err != nil {
			t.Fatal(err)
		}
		return b
	}
	one, all := fill(), fill()
	for _, tp := range src {
		if err := one.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := all.AddAll(NewMemSource(schema, src)); err != nil {
		t.Fatal(err)
	}
	if one.Len() != all.Len() || one.PendingRemovals() != all.PendingRemovals() {
		t.Fatalf("AddAll: len %d pending %d, Add: len %d pending %d",
			all.Len(), all.PendingRemovals(), one.Len(), one.PendingRemovals())
	}
	if one.PendingRemovals() != 1 {
		t.Fatalf("pending removals = %d, want only the unmatched one", one.PendingRemovals())
	}
	// The unmatched removal makes every scan fail; compare the raw
	// additions instead.
	want, err := ReadAll(one.add)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(all.add)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTuples(t, "AddAll", got, want)
}
