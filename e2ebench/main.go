// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload from a seed, checks every output against an oracle, and
// prints each metric by name and unit; the last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics.
//
//	go run . --workload scan-clean --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it reports the per-layer breakdown instead: every
// other iteration runs with core's tracer and metrics registry attached and
// with the benchmark's own spans around each call it makes into a module.
// See README.md for the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// inputs fingerprints the generated inputs (not printed in the JSON).
	inputs uint64
}

// options are the run parameters shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every data size: 1 from the command line, 0.01 in
	// the smoke test.
	scale float64
	// parallelism is core's and predict's worker count.
	parallelism int
	// dir holds the data files and spill files of the run.
	dir string
}

func main() {
	o := options{scale: 1}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.IntVar(&o.parallelism, "parallelism", 0, "worker count (0 = min(2, NumCPU))")
	flag.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "e2ebench"), "directory for data and spill files")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if o.parallelism <= 0 {
		o.parallelism = min(2, runtime.NumCPU())
	}
	if o.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	res, err := run(o)
	if err != nil {
		fatalf("%v", err)
	}
	printResult(os.Stdout, res)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(2)
}

// run executes one workload in a fresh work directory and removes it
// afterwards.
func run(o options) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.dir, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.dir = dir
	fmt.Fprintf(os.Stdout, "workload=%s seed=%d seconds=%g trace=%v parallelism=%d GOMAXPROCS=%d NumCPU=%d\n",
		o.workload, o.seed, o.seconds, o.trace, o.parallelism, runtime.GOMAXPROCS(0), runtime.NumCPU())
	return w.run(o)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult writes one human-readable line per metric, then the JSON
// result as the last line.
func printResult(f *os.File, r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "metric %-32s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(f, "error_rate %d/%d = %g\n", r.Failed, r.Attempted, float64(r.Failed)/float64(max(r.Attempted, 1)))
	out, err := json.Marshal(r)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintln(f, string(out))
}

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks (the "R-7" rule). It sorts xs in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	h := p * float64(len(xs)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's high-water resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
