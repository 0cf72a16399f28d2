package boat_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"github.com/boatml/boat"
)

// TestPublicAPIEndToEnd drives the complete user-facing surface: schema
// construction, synthetic data, file persistence, growing a model, I/O
// accounting, classification, incremental updates, and the baselines.
func TestPublicAPIEndToEnd(t *testing.T) {
	src, err := boat.Synthetic(boat.SyntheticConfig{Function: 1, Noise: 0.05}, 8000, 42)
	if err != nil {
		t.Fatal(err)
	}

	// Persist to the paper's 40-byte binary format and read back.
	path := filepath.Join(t.TempDir(), "train.boat")
	if _, err := boat.WriteFile(path, src, boat.FormatCompact); err != nil {
		t.Fatal(err)
	}
	file, err := boat.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var io boat.IOStats
	model, err := boat.Grow(file, boat.Options{
		Method:     boat.Gini(),
		MaxDepth:   5,
		MinSplit:   50,
		SampleSize: 2000,
		Seed:       1,
		Stats:      &io,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer model.Close()

	if io.Scans() != 2 {
		t.Errorf("BOAT scans = %d, want 2", io.Scans())
	}

	tree := model.Tree()
	if tree.NumNodes() < 3 {
		t.Fatalf("implausibly small tree:\n%s", tree)
	}
	rate, err := tree.MisclassificationRate(file)
	if err != nil {
		t.Fatal(err)
	}
	if rate > 0.15 {
		t.Errorf("misclassification %v too high for F1 with 5%% noise", rate)
	}

	// The reference and the baselines agree exactly.
	tuples := readAll(t, file)
	ref := boat.GrowInMemory(file.Schema(), tuples, boat.InMemoryOptions{
		Method: boat.Gini(), MaxDepth: 5, MinSplit: 50,
	})
	if !tree.Equal(ref) {
		t.Fatalf("BOAT vs reference: %s", tree.Diff(ref))
	}
	for _, vertical := range []bool{false, true} {
		rf, _, err := boat.GrowRainForest(file, boat.RainForestOptions{
			Grow:             boat.InMemoryOptions{Method: boat.Gini(), MaxDepth: 5, MinSplit: 50},
			AVCBufferEntries: 20000,
			Vertical:         vertical,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rf.Equal(ref) {
			t.Fatalf("RainForest(vertical=%v) vs reference: %s", vertical, rf.Diff(ref))
		}
	}

	// Incremental insert keeps the exactness guarantee.
	chunk, err := boat.Synthetic(boat.SyntheticConfig{Function: 1, Noise: 0.05}, 4000, 43)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := model.Insert(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if upd.TuplesSeen != 4000 {
		t.Errorf("update streamed %d tuples", upd.TuplesSeen)
	}
	combined := append(tuples, readAll(t, chunk)...)
	ref2 := boat.GrowInMemory(file.Schema(), combined, boat.InMemoryOptions{
		Method: boat.Gini(), MaxDepth: 5, MinSplit: 50,
	})
	if got := model.Tree(); !got.Equal(ref2) {
		t.Fatalf("after insert: %s", got.Diff(ref2))
	}
}

func TestPublicAPICustomSchema(t *testing.T) {
	schema, err := boat.NewSchema([]boat.Attribute{
		{Name: "temperature", Kind: boat.Numeric},
		{Name: "weather", Kind: boat.Categorical, Cardinality: 3},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var tuples []boat.Tuple
	for i := 0; i < 600; i++ {
		temp := float64(i % 40)
		class := 0
		if temp > 25 {
			class = 1
		}
		tuples = append(tuples, boat.Tuple{
			Values: []float64{temp, float64(i % 3)},
			Class:  class,
		})
	}
	model, err := boat.Grow(boat.NewMemSource(schema, tuples), boat.Options{
		Method: boat.Entropy(), Seed: 1, SampleSize: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer model.Close()
	tr := model.Tree()
	if got := tr.Classify(boat.Tuple{Values: []float64{10, 0}}); got != 0 {
		t.Errorf("cold day classified as %d", got)
	}
	if got := tr.Classify(boat.Tuple{Values: []float64{35, 1}}); got != 1 {
		t.Errorf("hot day classified as %d", got)
	}
}

func TestPublicAPIQuestMethod(t *testing.T) {
	src, err := boat.Synthetic(boat.SyntheticConfig{Function: 7}, 5000, 9)
	if err != nil {
		t.Fatal(err)
	}
	model, err := boat.Grow(src, boat.Options{Method: boat.QuestLike(), MaxDepth: 5, Seed: 2, SampleSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer model.Close()
	tuples := readAll(t, src)
	ref := boat.GrowInMemory(src.Schema(), tuples, boat.InMemoryOptions{
		Method: boat.QuestLike(), MaxDepth: 5,
	})
	if got := model.Tree(); !got.Equal(ref) {
		t.Fatalf("quest: %s", got.Diff(ref))
	}
}

func readAll(t *testing.T, src boat.Source) []boat.Tuple {
	t.Helper()
	var out []boat.Tuple
	if err := boat.ForEach(src, func(tp boat.Tuple) error {
		out = append(out, tp.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPublicAPIModelPersistence(t *testing.T) {
	src, err := boat.Synthetic(boat.SyntheticConfig{Function: 1, Noise: 0.05}, 5000, 11)
	if err != nil {
		t.Fatal(err)
	}
	opt := boat.Options{Method: boat.Gini(), MaxDepth: 5, MinSplit: 100, SampleSize: 1200, Seed: 1}
	model, err := boat.Grow(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer model.Close()

	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := boat.LoadModel(&buf, src.Schema(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if !restored.Tree().Equal(model.Tree()) {
		t.Fatal("restored model differs")
	}
	chunk, _ := boat.Synthetic(boat.SyntheticConfig{Function: 1, Noise: 0.05}, 2000, 12)
	if _, err := restored.Insert(chunk); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Insert(chunk); err != nil {
		t.Fatal(err)
	}
	if !restored.Tree().Equal(model.Tree()) {
		t.Fatal("restored model diverged after update")
	}
}

func TestPublicAPIPruneAndEvaluate(t *testing.T) {
	src, err := boat.Synthetic(boat.SyntheticConfig{Function: 1, Noise: 0.15}, 8000, 21)
	if err != nil {
		t.Fatal(err)
	}
	model, err := boat.Grow(src, boat.Options{
		Method: boat.Gini(), MaxDepth: 10, MinSplit: 8, SampleSize: 2000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer model.Close()
	grown := model.Tree()
	pruned, err := boat.PruneMDL(grown, boat.MDLPruneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.NumNodes() >= grown.NumNodes() {
		t.Errorf("MDL did not shrink: %d -> %d", grown.NumNodes(), pruned.NumNodes())
	}
	clean, _ := boat.Synthetic(boat.SyntheticConfig{Function: 1}, 4000, 99)
	m, err := boat.Evaluate(pruned, clean)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy() < 0.9 {
		t.Errorf("pruned accuracy %v", m.Accuracy())
	}
}
