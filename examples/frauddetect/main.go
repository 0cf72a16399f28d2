// Fraud detection in a dynamic environment (the paper's motivating
// scenario for incremental maintenance, Section 4): a credit-card-style
// stream of transaction batches arrives continuously; the decision tree
// must always reflect the latest data without nightly full rebuilds.
//
// The example builds an initial BOAT model, then absorbs arriving chunks
// and expires old ones (a sliding window). After every update it verifies
// the paper's guarantee — the maintained tree is *identical* to a tree
// rebuilt from scratch on the current window — and reports how much work
// the update actually did.
//
//	go run ./examples/frauddetect
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/boatml/boat"
)

const (
	chunkSize = 20000
	window    = 3 // chunks kept in the training window
)

func main() {
	cfg := boat.SyntheticConfig{Function: 7, Noise: 0.05} // income/loan-driven concept
	opts := boat.Options{
		Method:   boat.Gini(),
		MaxDepth: 5,
		MinSplit: 200,
		Seed:     11,
	}
	growRef := boat.InMemoryOptions{Method: opts.Method, MaxDepth: opts.MaxDepth, MinSplit: opts.MinSplit}

	// Initial window: chunks 1..window.
	var windowChunks [][]boat.Tuple
	initial := make([]boat.Tuple, 0, window*chunkSize)
	for seed := int64(1); seed <= window; seed++ {
		chunk := mustChunk(cfg, seed)
		windowChunks = append(windowChunks, chunk)
		initial = append(initial, chunk...)
	}
	schema := boat.SyntheticSchema(0)
	model, err := boat.Grow(boat.NewMemSource(schema, initial), opts)
	if err != nil {
		log.Fatal(err)
	}
	defer model.Close()
	fmt.Printf("initial model over %d transactions: %d nodes\n",
		len(initial), model.Tree().NumNodes())

	// Slide the window: each step inserts a fresh chunk and expires the
	// oldest one. Every few steps the transaction mix shifts (the paper's
	// "distribution change"): BOAT rebuilds only the affected subtrees.
	for step := int64(1); step <= 5; step++ {
		newCfg := cfg
		if step >= 4 {
			newCfg = boat.SyntheticConfig{Function: 7, Noise: 0.20} // fraud wave: noisier labels
		}
		fresh := mustChunk(newCfg, 100+step)
		expired := windowChunks[0]
		windowChunks = append(windowChunks[1:], fresh)

		start := time.Now()
		ins, err := model.Insert(boat.NewMemSource(schema, fresh))
		if err != nil {
			log.Fatal(err)
		}
		del, err := model.Delete(boat.NewMemSource(schema, expired))
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)

		// The guarantee: identical to a full rebuild on the window.
		var current []boat.Tuple
		for _, c := range windowChunks {
			current = append(current, c...)
		}
		ref := boat.GrowInMemory(schema, cloneAll(current), growRef)
		maintained := model.Tree()
		if !maintained.Equal(ref) {
			log.Fatalf("maintained tree diverged from rebuild: %s", maintained.Diff(ref))
		}
		fmt.Printf("step %d: +%d/-%d tuples in %v | rebuilt subtrees: %d, migrated stuck tuples: %d, refitted leaves: %d | tree: %d nodes | EXACT vs rebuild: yes\n",
			step, ins.TuplesSeen, del.TuplesSeen, elapsed.Round(time.Millisecond),
			ins.RebuiltSubtrees+del.RebuiltSubtrees,
			ins.MigratedTuples+del.MigratedTuples,
			ins.RefittedLeaves+del.RefittedLeaves,
			maintained.NumNodes())
	}
}

func mustChunk(cfg boat.SyntheticConfig, seed int64) []boat.Tuple {
	src, err := boat.Synthetic(cfg, chunkSize, seed)
	if err != nil {
		log.Fatal(err)
	}
	var out []boat.Tuple
	err = boat.ForEach(src, func(tp boat.Tuple) error {
		out = append(out, tp.Clone())
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return out
}

func cloneAll(ts []boat.Tuple) []boat.Tuple {
	out := make([]boat.Tuple, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}
