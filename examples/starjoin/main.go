// Star-join mining: the paper's data-warehousing scenario (Section 1) —
// the training database is a star-join query over a purchases fact stream
// and customer/product dimension tables, and it is never materialized.
// BOAT needs only sequential scans and a random sample of the join view,
// so it mines the exact decision tree in two streaming passes.
//
// The example then prunes the grown tree (MDL and reduced-error) and
// cross-validates the fraud classifier.
//
//	go run ./examples/starjoin
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/boatml/boat"
)

func main() {
	// The warehouse: 2000 customers, 300 products, and a purchases view
	// of 200k transactions computed on the fly.
	star, err := boat.NewStarWarehouse(2000, 300, 42)
	if err != nil {
		log.Fatal(err)
	}
	view := star.TrainingView(200_000, 7)
	fmt.Println("training database: SELECT ... FROM purchases JOIN customers JOIN products")
	fmt.Println("(never materialized: every scan streams the join)")
	fmt.Println()

	var io boat.IOStats
	model, err := boat.Grow(view, boat.Options{
		Method:   boat.Gini(),
		MaxDepth: 7,
		MinSplit: 200,
		Seed:     1,
		Stats:    &io,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer model.Close()
	grown := model.Tree()
	fmt.Printf("BOAT scanned the join view %d times and grew %d nodes (depth %d)\n",
		io.Scans(), grown.NumNodes(), grown.Depth())

	// Pruning: MDL needs no extra data; reduced-error uses a fresh
	// validation stream from the same view definition.
	mdl, err := boat.PruneMDL(grown, boat.MDLPruneOptions{})
	if err != nil {
		log.Fatal(err)
	}
	validation := star.TrainingView(40_000, 99)
	rep, err := boat.PruneReducedError(grown, validation)
	if err != nil {
		log.Fatal(err)
	}

	test := star.TrainingView(40_000, 123)
	for _, entry := range []struct {
		name string
		tr   *boat.DecisionTree
	}{
		{"grown (unpruned)", grown},
		{"MDL-pruned", mdl},
		{"reduced-error-pruned", rep},
	} {
		m, err := boat.Evaluate(entry.tr, test)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %4d nodes  test-error %.4f  fraud-recall %.3f  fraud-precision %.3f\n",
			entry.name, entry.tr.NumNodes(), m.MisclassificationRate(),
			m.Recall(1), m.Precision(1))
	}

	// 5-fold cross-validation of the whole pipeline on a sampled subset.
	fmt.Println()
	sampleView := star.TrainingView(30_000, 5)
	tuples := readAll(sampleView)
	folds, err := boat.CrossValidate(sampleView.Schema(), tuples, 5,
		rand.New(rand.NewSource(3)),
		func(train boat.Source) (*boat.DecisionTree, error) {
			m, err := boat.Grow(train, boat.Options{
				Method: boat.Gini(), MaxDepth: 6, MinSplit: 100, Seed: 2,
			})
			if err != nil {
				return nil, err
			}
			defer m.Close()
			return boat.PruneMDL(m.Tree(), boat.MDLPruneOptions{})
		})
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range folds {
		fmt.Printf("fold %d: error %.4f (%d nodes)\n",
			f.Fold, f.Matrix.MisclassificationRate(), f.Tree.NumNodes())
	}
}

func readAll(src boat.Source) []boat.Tuple {
	var out []boat.Tuple
	err := boat.ForEach(src, func(tp boat.Tuple) error {
		out = append(out, tp.Clone())
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	return out
}
