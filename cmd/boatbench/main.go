// Command boatbench regenerates the paper's evaluation (Section 5): every
// figure from 4 to 15 has an experiment that runs BOAT against the
// RainForest baselines (or the incremental-update comparison) on the
// corresponding synthetic workload and prints the measured series. Tree
// identity across all algorithms is verified as part of every run.
//
// Sizes are in the paper's "millions of tuples"; -unit maps one
// paper-million to actual tuples (default 50000, a 20x scale-down that
// runs in minutes on a laptop; -unit 1000000 reproduces the full-scale
// experiment).
//
// Usage:
//
//	boatbench -experiment fig4
//	boatbench -experiment all -unit 50000 -files
//	boatbench -experiment fig12
//	boatbench -experiment fig4 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"

	"github.com/boatml/boat/internal/experiments"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
)

var runners = []struct {
	id    string
	descr string
	run   func(experiments.Config) ([]experiments.Row, error)
}{
	{"fig4", "Overall time vs DB size, Function 1", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunScalability("fig4", 1, c)
	}},
	{"fig5", "Overall time vs DB size, Function 6", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunScalability("fig5", 6, c)
	}},
	{"fig6", "Overall time vs DB size, Function 7", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunScalability("fig6", 7, c)
	}},
	{"fig7", "Time vs noise, Function 1", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunNoise("fig7", 1, c)
	}},
	{"fig8", "Time vs noise, Function 6", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunNoise("fig8", 6, c)
	}},
	{"fig9", "Time vs noise, Function 7", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunNoise("fig9", 7, c)
	}},
	{"fig10", "Time vs extra attributes, Function 1", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunExtraAttrs("fig10", 1, c)
	}},
	{"fig11", "Time vs extra attributes, Function 6", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunExtraAttrs("fig11", 6, c)
	}},
	{"fig13", "Dynamic environment: stable distribution", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunDynamic("fig13", experiments.DynamicStable, c)
	}},
	{"fig14", "Dynamic environment: distribution change", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunDynamic("fig14", experiments.DynamicChange, c)
	}},
	{"fig15", "Dynamic environment: small vs large update chunks", func(c experiments.Config) ([]experiments.Row, error) {
		return experiments.RunDynamic("fig15", experiments.DynamicChunkSize, c)
	}},
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "figure to reproduce: fig4..fig15, or all")
		unit       = flag.Int64("unit", 50_000, "tuples per paper-'million'")
		maxUnits   = flag.Int("maxunits", 10, "largest dataset in paper-millions")
		files      = flag.Bool("files", false, "materialize datasets as binary files and scan from disk")
		dir        = flag.String("dir", "", "scratch directory (default: system temp)")
		seed       = flag.Int64("seed", 1, "experiment seed")
		method     = flag.String("method", "gini", "split selection: gini | entropy | quest")
		para       = flag.Int("parallelism", 0, "worker goroutines for BOAT's parallel phases (0 = GOMAXPROCS, 1 = sequential; trees are identical at every setting)")
		verbose    = flag.Bool("v", true, "log progress")

		faults      = flag.Bool("faults", false, "run the storage fault-injection soak instead of a figure")
		faultBuilds = flag.Int("faultbuilds", 100, "number of fault-injected builds in the soak")
		faultSeed   = flag.Int64("faultseed", 1, "base seed for the injected fault sequence")

		metricsJSON = flag.String("metricsjson", "", `write the accumulated BOAT metrics registry as JSON to this file ("-" = stdout)`)
		listen      = flag.String("listen", "", `diagnostics HTTP server address for /metrics and /debug/pprof during the run ("" disables)`)
		logJSON     = flag.Bool("logjson", false, "emit structured logs as JSON instead of text")
		logLevel    = flag.String("loglevel", "info", "log level: debug | info | warn | error")

		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceprofile = flag.String("traceprofile", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, obs.LogConfig{JSON: *logJSON, Level: *logLevel})
	if err != nil {
		fmt.Fprintf(os.Stderr, "boatbench: %v\n", err)
		os.Exit(2)
	}
	stopProfiles, err := startProfiles(*cpuprofile, *traceprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "boatbench: %v\n", err)
		os.Exit(2)
	}
	code := run(mainConfig{
		experiment: *experiment, unit: *unit, maxUnits: *maxUnits,
		files: *files, dir: *dir, seed: *seed, method: *method,
		para: *para, verbose: *verbose, logger: logger,
		faults: *faults, faultBuilds: *faultBuilds, faultSeed: *faultSeed,
		metricsJSON: *metricsJSON, listen: *listen,
	})
	stopProfiles()
	if err := writeMemProfile(*memprofile); err != nil {
		fmt.Fprintf(os.Stderr, "boatbench: %v\n", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

// startProfiles begins CPU profiling and execution tracing when the
// corresponding paths are non-empty, returning a function that flushes
// both. Profiles must be flushed on every exit path, which is why main
// funnels all work through run() instead of calling os.Exit directly.
func startProfiles(cpuPath, tracePath string) (stop func(), err error) {
	var stops []func()
	stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return stop, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, fmt.Errorf("cpuprofile: %w", err)
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			stop()
			return func() {}, fmt.Errorf("traceprofile: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			stop()
			return func() {}, fmt.Errorf("traceprofile: %w", err)
		}
		stops = append(stops, func() { trace.Stop(); f.Close() })
	}
	return stop, nil
}

// writeMemProfile snapshots the heap into path ("" = disabled).
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

type mainConfig struct {
	experiment string
	unit       int64
	maxUnits   int
	files      bool
	dir        string
	seed       int64
	method     string
	para       int
	verbose    bool
	logger     *slog.Logger

	faults      bool
	faultBuilds int
	faultSeed   int64

	metricsJSON string
	listen      string
}

func run(mc mainConfig) int {
	var m split.Method
	switch mc.method {
	case "gini":
		m = split.NewGini()
	case "entropy":
		m = split.NewEntropy()
	case "quest":
		m = split.NewQuestLike()
	default:
		fmt.Fprintf(os.Stderr, "boatbench: unknown method %q\n", mc.method)
		return 2
	}

	var metrics *obs.Registry
	if mc.metricsJSON != "" || mc.listen != "" {
		metrics = obs.NewRegistry()
	}
	// Opt-in diagnostics server (default off for benchmarks): /metrics,
	// probes and pprof over the run's registry, with the runtime sampler
	// feeding heap/GC/goroutine gauges while the benchmark executes. Both
	// stay completely dark — no goroutine, no socket — without -listen.
	if mc.listen != "" {
		sampler := obs.StartSampler(metrics, obs.SamplerConfig{Logger: mc.logger})
		defer sampler.Close()
		diag, err := obs.StartServer(obs.ServerConfig{
			Addr: mc.listen, Registry: metrics, Logger: mc.logger,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "boatbench: %v\n", err)
			return 2
		}
		defer diag.Close()
	}

	cfg := experiments.Config{
		Unit: mc.unit, MaxUnits: mc.maxUnits, UseFiles: mc.files,
		Dir: mc.dir, Seed: mc.seed, Method: m, Parallelism: mc.para,
		Metrics: metrics,
	}
	if mc.verbose {
		cfg.Logger = mc.logger
	}
	defer func() { dumpMetrics(metrics, mc.metricsJSON) }()

	if mc.faults {
		fmt.Printf("=== fault soak: %d builds with injected transient storage faults ===\n", mc.faultBuilds)
		res, err := experiments.RunFaultSoak(cfg, mc.faultBuilds, mc.faultSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boatbench: fault soak: %v\n", err)
			return 1
		}
		fmt.Printf("builds: %d | exact: %d | clean errors: %d\n", res.Builds, res.Exact, res.Failed)
		fmt.Printf("faults injected: %d (%d transient)\n", res.InjectedFaults, res.Transient)
		fmt.Printf("recoveries: spill-retries=%d scan-retries=%d spill-rebuilds=%d\n",
			res.SpillRetries, res.ScanRetries, res.SpillRebuilds)
		fmt.Println("every build produced the exact tree or a clean error; no temp files or budget leaked")
		return 0
	}

	want := strings.Split(mc.experiment, ",")
	matches := func(id string) bool {
		for _, w := range want {
			if w == "all" || w == id {
				return true
			}
		}
		return false
	}

	ran := 0
	for _, r := range runners {
		if !matches(r.id) {
			continue
		}
		ran++
		fmt.Printf("\n=== %s: %s ===\n", r.id, r.descr)
		rows, err := r.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boatbench: %s: %v\n", r.id, err)
			return 1
		}
		experiments.FormatRows(os.Stdout, rows)
	}
	if matches("fig12") {
		ran++
		fmt.Printf("\n=== fig12: Instability of impurity-based split selection ===\n")
		res, err := experiments.RunInstability(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "boatbench: fig12: %v\n", err)
			return 1
		}
		fmt.Printf("root survived bootstrap intersection: %v\n", res.RootSurvived)
		if res.RootSurvived {
			fmt.Printf("bootstrap split points: %v\n", res.Points)
			fmt.Printf("points near the tied minima: %d near x=19, %d near x=60\n",
				res.NearLow, res.NearHigh)
			fmt.Printf("confidence interval: [%g, %g]\n", res.IntervalLo, res.IntervalHi)
		}
		fmt.Printf("coarse tree nodes: %d (growth stops where bootstrap trees disagree)\n", res.CoarseNodes)
		fmt.Printf("BOAT verification failures recovered from: %d\n", res.Failures)
		fmt.Printf("BOAT tree identical to reference: %v\n", res.BOATExact)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "boatbench: no experiment matches %q\n", mc.experiment)
		return 2
	}
	return 0
}

// dumpMetrics writes the registry as JSON to path ("" = disabled, "-" =
// stdout), returning a process exit code.
func dumpMetrics(metrics *obs.Registry, path string) int {
	if !metrics.Enabled() || path == "" {
		return 0
	}
	if path == "-" {
		if err := metrics.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "boatbench: metricsjson: %v\n", err)
			return 1
		}
		return 0
	}
	f, err := os.Create(path)
	if err == nil {
		err = metrics.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "boatbench: metricsjson: %v\n", err)
		return 1
	}
	return 0
}
