// Instability of impurity-based split selection (the paper's Figure 12):
// a dataset is crafted so the gini impurity has two exactly tied minima
// (at attribute values 19 and 60). Tiny resampling perturbations flip the
// global minimum between them, so bootstrap split points are bimodal —
// coarse-tree growth stops where bootstrap trees disagree, and BOAT falls
// back to its slower (but still exact) paths. The non-impurity QUEST-like
// method selects its split point from smooth statistics and is immune.
//
//	go run ./examples/instability
package main

import (
	"fmt"
	"log"
	"strings"

	"github.com/boatml/boat"
)

func main() {
	fmt.Println("The Figure 12 workload: P(class A | x) is 0.9 for x<=19, 0.5 for")
	fmt.Println("20<=x<=60 and 0.1 for x>=61, with segment sizes that make the")
	fmt.Println("splits 'x <= 19' and 'x <= 60' exactly tied in expectation.")
	fmt.Println()

	// Draw bootstrap trees repeatedly and record where each one splits.
	const repetitions = 40
	histogram := map[string]int{}
	for seed := int64(0); seed < repetitions; seed++ {
		tr := bootstrapTree(seed)
		crit := tr.Root.Crit
		switch {
		case !crit.Found:
			histogram["(leaf)"]++
		case crit.Threshold < 40:
			histogram["near 19"]++
		default:
			histogram["near 60"]++
		}
	}
	fmt.Println("root split location across", repetitions, "bootstrap samples (gini):")
	for _, k := range []string{"near 19", "near 60", "(leaf)"} {
		if histogram[k] > 0 {
			fmt.Printf("  %-8s %s (%d)\n", k, strings.Repeat("#", histogram[k]), histogram[k])
		}
	}
	fmt.Println()

	// QUEST-like split points are a smooth function of the data: across
	// the same resamples they barely move.
	var min, max float64
	for seed := int64(0); seed < repetitions; seed++ {
		tr := questTree(seed)
		thr := tr.Root.Crit.Threshold
		if seed == 0 || thr < min {
			min = thr
		}
		if seed == 0 || thr > max {
			max = thr
		}
	}
	fmt.Printf("QUEST-like root split point across the same resamples: [%.2f, %.2f] (spread %.2f)\n",
		min, max, max-min)
	fmt.Println()
	fmt.Println("Despite the instability, BOAT's output is guaranteed exact: its")
	fmt.Println("verification detects whenever the two minima flip and rebuilds the")
	fmt.Println("affected subtree (see TestExactnessInstability in internal/core).")
}

// bootstrapTree builds a depth-1 gini tree on a fresh resample.
func bootstrapTree(seed int64) *boat.DecisionTree {
	return sampleTree(seed, boat.Gini())
}

func questTree(seed int64) *boat.DecisionTree {
	return sampleTree(seed, boat.QuestLike())
}

func sampleTree(seed int64, method boat.Method) *boat.DecisionTree {
	src := boat.SyntheticInstability(40_000, seed)
	tuples := readAll(src)
	return boat.GrowInMemory(src.Schema(), tuples, boat.InMemoryOptions{
		Method:   method,
		MaxDepth: 1,
	})
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
