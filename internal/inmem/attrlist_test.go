package inmem

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/split"
)

// TestAttributeListMatchesNaive cross-checks the SPRINT-style builder
// against the per-node re-sorting oracle over randomized datasets,
// methods and stopping rules.
func TestAttributeListMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fn := 1 + rng.Intn(10)
			noise := float64(rng.Intn(20)) / 100
			n := int64(300 + rng.Intn(3000))
			src := gen.MustSource(gen.Config{Function: fn, Noise: noise, ExtraAttrs: rng.Intn(3)}, n, seed)
			tuples, err := data.ReadAll(src)
			if err != nil {
				t.Fatal(err)
			}
			var m split.Method = split.NewGini()
			switch rng.Intn(3) {
			case 1:
				m = split.NewEntropy()
			case 2:
				m = split.NewQuestLike()
			}
			cfg := Config{
				Method:   m,
				MaxDepth: 1 + rng.Intn(7),
				MinSplit: int64(2 + rng.Intn(30)),
			}
			if rng.Intn(2) == 0 {
				cfg.StopThreshold = n / int64(2+rng.Intn(6))
				cfg.StopAtThreshold = rng.Intn(2) == 0
			}
			fast := Build(src.Schema(), data.CloneTuples(tuples), cfg)
			naive := buildNaive(src.Schema(), data.CloneTuples(tuples), cfg)
			if !fast.Equal(naive) {
				t.Fatalf("fn=%d m=%s cfg=%+v: %s", fn, m.Name(), cfg, fast.Diff(naive))
			}
		})
	}
}

func TestAttributeListDoesNotReorderInput(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1}, 500, 3)
	tuples, _ := data.ReadAll(src)
	snapshot := data.CloneTuples(tuples)
	Build(src.Schema(), tuples, Config{Method: split.NewGini(), MaxDepth: 5})
	for i := range tuples {
		if !tuples[i].Equal(snapshot[i]) {
			t.Fatal("attribute-list builder reordered the input slice")
		}
	}
}

func TestAttributeListEmptyAndTiny(t *testing.T) {
	schema := gen.Schema(0)
	for _, n := range []int{0, 1, 2} {
		var tuples []data.Tuple
		src := gen.MustSource(gen.Config{Function: 1}, int64(n), 1)
		tuples, _ = data.ReadAll(src)
		tr := Build(schema, tuples, Config{Method: split.NewGini()})
		if tr.Root == nil {
			t.Fatalf("n=%d: nil root", n)
		}
	}
}

func BenchmarkBuildAttrList(b *testing.B) {
	src := gen.MustSource(gen.Config{Function: 6, Noise: 0.1}, 100_000, 5)
	tuples, _ := data.ReadAll(src)
	cfg := Config{Method: split.NewGini(), StopThreshold: 15_000, StopAtThreshold: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(src.Schema(), tuples, cfg)
	}
}

func BenchmarkBuildNaive(b *testing.B) {
	src := gen.MustSource(gen.Config{Function: 6, Noise: 0.1}, 100_000, 5)
	tuples, _ := data.ReadAll(src)
	cfg := Config{Method: split.NewGini(), StopThreshold: 15_000, StopAtThreshold: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildNaive(src.Schema(), data.CloneTuples(tuples), cfg)
	}
}
