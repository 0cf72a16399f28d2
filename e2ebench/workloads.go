package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/boatml/boat/internal/core"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/predict"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// spec describes one workload. Every workload runs BOAT's whole life cycle
// on Agrawal F1 data — Grow, then maintain (Insert/Delete rounds) and serve
// (predict batches) — but on a different data regime, so each puts its time
// in different layers (see README.md).
type spec struct {
	// n is |D| at scale 1; noise the label-noise probability.
	n     int64
	noise float64
	// sampleDiv sets SampleSize = n/sampleDiv; each bootstrap subsample is
	// core's default, SampleSize/4.
	sampleDiv int64
	// stopFrac, when positive, sets StopThreshold = stopFrac*n with
	// StopAtThreshold (the paper's §5 method).
	stopFrac float64
	// memDiv, when positive, sets the memory budget to n/memDiv tuples so
	// that families spill.
	memDiv int64
	// file: D is written with data.WriteColFile and Grow reads it through
	// data.Open; otherwise Grow reads D from memory.
	file bool
	// chunk is the number of tuples of each update chunk at scale 1.
	chunk int64
	// roundsPerGrow, when positive, is the number of maintain/serve rounds
	// run on each timed Grow's model (the build workloads). Zero makes the
	// workload a maintain loop: the models are built in set-up and the
	// rounds run until the deadline.
	roundsPerGrow int
	// servePasses is the number of timed passes over the held-out batches
	// in each serve phase (at least 1).
	servePasses int
}

const (
	// datasets is the number of independently generated datasets of a run.
	// Set-up runs once per dataset (setup_s is the median) and the loop
	// cycles through them in whole cycles, so every metric of a run covers
	// the same mix of data.
	datasets = 3

	// The maintain/serve rounds, shared by every workload (paper Fig 13
	// scaled down): each round Inserts the next of chunkCount pre-generated
	// chunks, Deletes the oldest once window chunks are live, then serves
	// predictBatches batches of held-out tuples. A batch of batchTuples
	// takes ~1 ms: smaller ones time mostly goroutine hand-offs, and their
	// p90 is scheduler noise.
	chunkCount     = 8
	window         = 4
	predictBatches = 4
	batchTuples    = 50000
	// ledgerRounds is the prefix of a maintain loop's rounds per dataset
	// whose counters enter the exact-counter ledger.
	ledgerRounds = chunkCount
)

var workloads = map[string]*spec{
	"scan-clean": {
		// F1's two root split points (age 39 and age 59) differ in Gini by
		// only 0.008. With a sample of N/50 = 40k and subsamples of 10k,
		// ~40% of datasets get a bootstrap tree that picks age 39, widening
		// the root's interval to ages 40..59: ~650k stuck tuples, and leaf
		// refits that make an update cost seconds instead of milliseconds.
		// The paper's own sizes (a 200k sample, 50k subsamples; core's
		// defaults here) make that a ~0.1% event.
		n: 2_000_000, sampleDiv: 10,
		// Updates into pure leaves cost ~0.5 µs a tuple, so 5,000-tuple
		// chunks would take ~2 ms and time mostly scheduler noise. With 8
		// rounds per Grow (24 update pairs a run) the median update spread
		// by 0.19 of itself across seeds, with 24 rounds by about 0.1.
		file: true, chunk: 50_000, roundsPerGrow: 24,
	},
	"build-noisy": {
		n: 1_000_000, noise: 0.05, sampleDiv: 50,
		stopFrac: 0.15, memDiv: 5, file: true, chunk: 5000, roundsPerGrow: 1,
		// One serve phase per Grow: 4 timed batches each would leave 12
		// samples of ~1 ms per run, whose median spread by 0.26-0.45 of
		// itself across seeds. 100 more batches cost ~0.1 s.
		servePasses: 25,
	},
	"maintain-serve": {
		n: 100_000, noise: 0.10, sampleDiv: 10,
		stopFrac: 0.15, chunk: 5000,
	},
}

// ledger holds the exact counters of one unit of work. For a fixed seed and
// Parallelism every unit on the same dataset must produce the same ledger.
type ledger struct {
	Scans         int64 `json:"scans"`
	TuplesRead    int64 `json:"tuples_read"`
	SpillBytes    int64 `json:"spill_bytes"`
	StuckTuples   int64 `json:"stuck_tuples"`
	Rebuilds      int64 `json:"rebuilds"`
	RefitLeaves   int64 `json:"refitted_leaves"`
	UpdateRebuild int64 `json:"update_rebuilds"`
}

func (l *ledger) addBuild(st *iostats.Stats, bs core.BuildStats) {
	l.Scans += st.Scans()
	l.TuplesRead += st.TuplesRead()
	l.SpillBytes += st.SpillBytes()
	l.StuckTuples += bs.StuckTuples
	l.Rebuilds += bs.FrontierRebuilds + bs.FailedNodes + bs.SpillRebuilds
}

func (l *ledger) addUpdate(u core.UpdateStats) {
	l.RefitLeaves += u.RefittedLeaves
	l.UpdateRebuild += u.RebuiltSubtrees
}

func (l *ledger) add(o ledger) {
	l.Scans += o.Scans
	l.TuplesRead += o.TuplesRead
	l.SpillBytes += o.SpillBytes
	l.StuckTuples += o.StuckTuples
	l.Rebuilds += o.Rebuilds
	l.RefitLeaves += o.RefitLeaves
	l.UpdateRebuild += o.UpdateRebuild
}

// dataset is one generated D with its update chunks, held-out batches and
// oracle tree.
type dataset struct {
	path    string       // D's file (file workloads)
	base    []data.Tuple // D in memory (maintain-serve)
	chunks  []*data.MemSource
	holdout []*data.MemSource
	oracle  *tree.Tree
	inputs  uint64 // fingerprint of D's first tuples

	// maintain-serve's session on this dataset's base model, made in
	// set-up, and the counters of its base Grow, the Inserts that fill its
	// window and its first ledgerRounds rounds: the printed ledger.
	sess  *session
	count *ledger

	unit *ledger // counters of the first unit of work on this dataset
}

// bench is the state of one run.
type bench struct {
	o      options
	sp     *spec
	schema *data.Schema
	method split.Method
	budget *data.MemBudget
	sets   []*dataset

	// Samples of the end-to-end metrics.
	setupS, oracleS, buildS []float64
	buildScans, buildIOAmp  []float64
	updateMS, predictMS     []float64
	firstPredictMS          []float64 // the first batch of each epoch
	predictRate             []float64 // Mtuples/s of each timed batch

	attempted, failed int
	ledgerRepeats     bool

	tr *tracing // nil unless --trace 1
}

func (s *spec) run(o options) (*result, error) {
	b := &bench{o: o, sp: s, method: split.NewGini(), budget: data.NewMemBudget(0), ledgerRepeats: true}
	if s.memDiv > 0 {
		b.budget = data.NewMemBudget(b.n() / s.memDiv)
	}
	if o.trace {
		b.tr = newTracing()
	}
	for i := 0; i < datasets; i++ {
		if err := b.setup(i); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	if s.roundsPerGrow > 0 {
		b.buildLoop()
	} else {
		b.maintainLoop()
	}
	return b.result()
}

// n returns |D| at the run's scale.
func (b *bench) n() int64 { return scaled(b.sp.n, b.o.scale) }

func scaled(n int64, scale float64) int64 { return max(int64(float64(n)*scale), 50) }

// check counts one attempted operation, failed unless ok.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "e2ebench: FAILED: "+format+"\n", args...)
	}
	return ok
}

func (b *bench) checkErr(err error, what string) bool {
	if err != nil {
		return b.check(false, "%s: %v", what, err)
	}
	return b.check(true, "")
}

// checkTree counts one check that got equals want.
func (b *bench) checkTree(got, want *tree.Tree, what string) bool {
	if got.Equal(want) {
		return b.check(true, "")
	}
	return b.check(false, "%s:\n%s", what, got.Diff(want))
}

// growConfig is the reference growth rules every Grow and the oracle share.
func (b *bench) growConfig() inmem.Config {
	g := inmem.Config{Method: b.method}
	if b.sp.stopFrac > 0 {
		g.StopThreshold = int64(b.sp.stopFrac * float64(b.n()))
		g.StopAtThreshold = true
	}
	return g
}

// coreConfig is the Grow configuration; st receives its I/O accounting.
func (b *bench) coreConfig(st *iostats.Stats, traced bool) core.Config {
	g := b.growConfig()
	cfg := core.Config{
		Method:          b.method,
		SampleSize:      int(max(b.n()/b.sp.sampleDiv, 100)),
		BootstrapTrees:  20,
		StopThreshold:   g.StopThreshold,
		StopAtThreshold: g.StopAtThreshold,
		Budget:          b.budget,
		TempDir:         b.o.dir,
		Seed:            b.o.seed,
		Stats:           st,
		Parallelism:     b.o.parallelism,
	}
	if traced {
		cfg.Trace = b.tr.tracer
		cfg.Metrics = b.tr.reg
	}
	return cfg
}

// genTuples generates one input stream of the run: stream of dataset ds.
func (b *bench) genTuples(n int64, ds, stream int64) ([]data.Tuple, error) {
	src, err := gen.NewSource(gen.Config{Function: 1, Noise: b.sp.noise}, n, b.o.seed*1_000_003+ds*1009+stream)
	if err != nil {
		return nil, err
	}
	b.schema = src.Schema()
	return data.ReadAll(src)
}

// setup makes dataset i from the seed: D (written to its file for the file
// workloads), the chunks and held-out batches, the inmem.Build oracle and,
// for maintain-serve, the base model. setupS times it up to and including
// the base Grow.
func (b *bench) setup(i int) error {
	runtime.GC() // every set-up starts from a collected heap
	start := time.Now()
	ds := &dataset{}
	tuples, err := b.genTuples(b.n(), int64(i), 0)
	if err != nil {
		return err
	}
	if b.sp.file {
		// Grow reads D back from its file, the oracle is built from the
		// generated tuples: a Grow that reads D wrong differs from it.
		ds.path = filepath.Join(b.o.dir, fmt.Sprintf("d%d.boatc", i))
		if _, err := data.WriteColFile(ds.path, data.NewMemSource(b.schema, tuples), 0); err != nil {
			return err
		}
	} else {
		ds.base = tuples
	}
	oracleStart := time.Now()
	ds.oracle = inmem.Build(b.schema, tuples, b.growConfig())
	b.oracleS = append(b.oracleS, time.Since(oracleStart).Seconds())
	for _, tp := range tuples[:min(len(tuples), 1000)] {
		ds.inputs = ds.inputs*31 + tp.Hash64()
	}
	for c := int64(0); c < chunkCount; c++ {
		ts, err := b.genTuples(scaled(b.sp.chunk, b.o.scale), int64(i), 100+c)
		if err != nil {
			return err
		}
		ds.chunks = append(ds.chunks, data.NewMemSource(b.schema, ts))
	}
	for h := int64(0); h < predictBatches; h++ {
		ts, err := b.genTuples(scaled(batchTuples, b.o.scale), int64(i), 200+h)
		if err != nil {
			return err
		}
		ds.holdout = append(ds.holdout, data.NewMemSource(b.schema, ts))
	}
	b.sets = append(b.sets, ds)
	if b.sp.roundsPerGrow > 0 {
		b.setupS = append(b.setupS, time.Since(start).Seconds())
		return nil
	}
	// maintain-serve: the base model is part of set-up. The Inserts that
	// fill its window are not: they are timed updates, each paired with the
	// Delete of its chunk in a later round.
	traced := b.tr != nil
	m, st := b.grow(ds, traced)
	b.setupS = append(b.setupS, time.Since(start).Seconds())
	if m == nil {
		return nil
	}
	ds.count = &ledger{}
	ds.count.addBuild(st, m.BuildStats())
	ds.sess = b.newSession(ds, m, traced)
	if !ds.sess.fill(ds.count) {
		return nil
	}
	b.noteLedger(ds, ds.count)
	b.repeatUnit(ds)
	if b.tr != nil {
		b.checkErr(b.tr.probeLayers(b, ds, ds.sess.m), "layer probes")
	}
	return nil
}

// repeatUnit is maintain-serve's second unit of work on a dataset: another
// Grow of the same base, untimed Inserts that fill its window, and Close.
// Its tree must equal the kept model's, and its exact counters must repeat
// those of the kept model's Grow and fill, whose concurrent rebuilds draw
// seeds from a shared counter. In a traced run this untraced Grow is also
// the reference for the tracing overhead.
func (b *bench) repeatUnit(ds *dataset) {
	m, st := b.grow(ds, false)
	if m == nil {
		return
	}
	defer m.Close()
	l := &ledger{}
	l.addBuild(st, m.BuildStats())
	s := &session{b: b, ds: ds, m: m, inserted: map[int]float64{}}
	if s.fill(l) {
		b.checkTree(m.Tree(), ds.sess.m.Tree(), "a second Grow and fill of the base differs from the kept model")
		b.noteLedger(ds, l)
	}
}

// source returns the dataset's D as the program reads it.
func (b *bench) source(ds *dataset) (data.Source, error) {
	if b.sp.file {
		return data.Open(ds.path)
	}
	return data.NewMemSource(b.schema, ds.base), nil
}

// grow runs one timed Grow of the dataset and checks its tree against the
// oracle. It returns the model and its I/O accounting, or nil after a
// failure.
func (b *bench) grow(ds *dataset, traced bool) (*core.Tree, *iostats.Stats) {
	src, err := b.source(ds)
	if !b.checkErr(err, "opening D") {
		return nil, nil
	}
	m, st := b.growOn(src, b.n(), traced)
	if m != nil && !b.checkTree(m.Tree(), ds.oracle, "Grow tree differs from the in-memory oracle") {
		m.Close()
		return nil, nil
	}
	return m, st
}

// growOn runs one timed Grow over src, which holds n tuples, and records
// its samples. It returns nil after a failure.
func (b *bench) growOn(src data.Source, n int64, traced bool) (*core.Tree, *iostats.Stats) {
	st := &iostats.Stats{}
	cfg := b.coreConfig(st, traced)
	// Grows and serve phases start from a collected heap, so that garbage
	// left by the previous operation is not collected on their clock...
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	var before map[string]int64
	if b.tr != nil {
		before = b.tr.counterValues()
		runtime.ReadMemStats(&ms0)
	}
	var m *core.Tree
	d, err := b.call("core.Build", traced, func() (err error) {
		m, err = core.Build(src, cfg)
		return err
	})
	if b.tr != nil {
		runtime.ReadMemStats(&ms1)
	}
	if !b.checkErr(err, "Grow") {
		return nil, nil
	}
	runtime.GC() // nor is the Grow's garbage collected on the next one's
	if n != b.n() {
		// maintain-serve's final-window Grows are larger than D: they are
		// correctness gates only.
		return m, st
	}
	b.buildS = append(b.buildS, d.Seconds())
	b.buildScans = append(b.buildScans, float64(st.Scans()))
	// Bytes moved per logical byte of D: D's reads plus spill writes.
	dBytes := float64(n) * float64(st.BytesRead()) / float64(max(st.TuplesRead(), 1))
	b.buildIOAmp = append(b.buildIOAmp, float64(st.BytesRead()+st.SpillBytes())/dBytes)
	if b.tr != nil {
		b.tr.noteBuild(traced, d, ms1.TotalAlloc-ms0.TotalAlloc, st, before)
	}
	return m, st
}

// buildLoop is the build workloads' loop, cycling through the datasets in
// whole cycles until the deadline: Grow, a few maintain/serve rounds on the
// fresh model, Delete what the rounds left live (which must restore the
// oracle tree exactly), Close, and check that nothing leaked. A traced run
// alternates untraced and traced iterations for at least two cycles, so
// that every dataset is grown both ways.
func (b *bench) buildLoop() {
	deadline := time.Now().Add(time.Duration(b.o.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || i%datasets != 0 || b.tr != nil && i < 2*datasets; i++ {
		ds := b.sets[i%datasets]
		traced := b.tr != nil && i%2 == 1
		m, st := b.grow(ds, traced)
		if m == nil {
			return
		}
		ok := !traced || b.checkErr(b.tr.probeLayers(b, ds, m), "layer probes")
		l := &ledger{}
		l.addBuild(st, m.BuildStats())
		s := b.newSession(ds, m, traced)
		for r := 0; ok && r < b.sp.roundsPerGrow; r++ {
			ok = s.round(l)
		}
		for ok && len(s.live) > 0 {
			ok = s.deleteOldest(l)
		}
		if ok {
			b.checkTree(m.Tree(), ds.oracle, "deleting every inserted chunk did not restore the Grow tree")
		}
		m.Close()
		b.checkClean()
		b.noteLedger(ds, l)
		if b.failed > 0 {
			return
		}
	}
}

// maintainLoop is maintain-serve's loop: rounds on the set-up models in
// turn, until the deadline and for at least ledgerRounds per model, whose
// counters enter the printed ledger. Then each maintained tree must equal a
// from-scratch Grow on its final window.
func (b *bench) maintainLoop() {
	defer func() {
		for _, ds := range b.sets {
			if ds.sess != nil {
				ds.sess.m.Close()
			}
		}
		b.checkClean()
	}()
	for _, ds := range b.sets {
		if ds.sess == nil {
			return
		}
	}
	deadline := time.Now().Add(time.Duration(b.o.seconds * float64(time.Second)))
	for r := 0; r < ledgerRounds*datasets || time.Now().Before(deadline) || r%datasets != 0; r++ {
		ds := b.sets[r%datasets]
		l := ds.count
		if r/datasets >= ledgerRounds {
			l = &ledger{}
		}
		if !ds.sess.round(l) {
			return
		}
	}
	for _, ds := range b.sets {
		window := append([]data.Tuple(nil), ds.base...)
		for _, c := range ds.sess.live {
			window = append(window, ds.chunks[c].Tuples()...)
		}
		// The same growth rules as the maintained model, so the same tree.
		fresh, _ := b.growOn(data.NewMemSource(b.schema, window), int64(len(window)), false)
		if fresh == nil {
			return
		}
		b.checkTree(ds.sess.m.Tree(), fresh.Tree(), "maintained tree differs from a from-scratch Grow on the final window")
		fresh.Close()
	}
}

// checkClean is the resource gate run after models are closed: no spill
// file may be left and the memory budget must be fully released.
func (b *bench) checkClean() {
	live := data.LiveTempFiles()
	b.check(len(live) == 0, "temp files left after Close: %v", live)
	b.check(b.budget.Used() == 0, "memory budget holds %d tuples after Close", b.budget.Used())
}

// noteLedger records one unit's exact counters and checks that they repeat
// those of the first unit on the same dataset.
func (b *bench) noteLedger(ds *dataset, l *ledger) {
	if ds.unit == nil {
		first := *l
		ds.unit = &first
		return
	}
	if *l != *ds.unit {
		b.ledgerRepeats = false
		b.check(false, "exact-counter ledger did not repeat: first %+v, now %+v", *ds.unit, *l)
	}
}

// session is one model under maintain/serve rounds.
type session struct {
	b        *bench
	ds       *dataset
	m        *core.Tree
	served   *predict.Maintained
	traced   bool
	timed    bool            // record the samples of updates and predict batches
	next     int             // next chunk to insert
	live     []int           // live chunks, oldest first
	inserted map[int]float64 // timed Insert ms of each live chunk
}

func (b *bench) newSession(ds *dataset, m *core.Tree, traced bool) *session {
	cfg := predict.Config{Parallelism: b.o.parallelism}
	if traced {
		cfg.Metrics = b.tr.reg
	}
	return &session{b: b, ds: ds, m: m, served: predict.NewMaintained(m, cfg), traced: traced, timed: true, inserted: map[int]float64{}}
}

// round Inserts the next chunk, Deletes the oldest once the window is
// full, then serves the predict batches. It reports false after a failure.
func (s *session) round(l *ledger) bool {
	c := s.next % chunkCount
	s.next++
	if !s.update(c, true, l) {
		return false
	}
	s.live = append(s.live, c)
	if len(s.live) == window && !s.deleteOldest(l) {
		return false
	}
	return s.serve()
}

// fill Inserts the first window-1 chunks, so that every round after it is
// one Insert and one Delete.
func (s *session) fill(l *ledger) bool {
	for len(s.live) < window-1 {
		c := s.next % chunkCount
		s.next++
		if !s.update(c, true, l) {
			return false
		}
		s.live = append(s.live, c)
	}
	return true
}

func (s *session) deleteOldest(l *ledger) bool {
	c := s.live[0]
	s.live = s.live[1:]
	return s.update(c, false, l)
}

// update applies one Insert or Delete of chunk c and times it.
func (s *session) update(c int, insert bool, l *ledger) bool {
	name, op := "core.Delete", s.m.Delete
	if insert {
		name, op = "core.Insert", s.m.Insert
	}
	var u core.UpdateStats
	d, err := s.b.call(name, s.traced, func() (err error) {
		u, err = op(s.ds.chunks[c])
		return err
	})
	if !s.b.checkErr(err, name) {
		return false
	}
	// A chunk's Delete costs up to twice its Insert, so per-call times mix
	// two modes and their median falls between them. One sample is the
	// mean of a chunk's timed Insert and its timed Delete.
	switch {
	case !s.timed:
	case insert:
		s.inserted[c] = ms(d)
	default:
		if ins, ok := s.inserted[c]; ok {
			s.b.updateMS = append(s.b.updateMS, (ins+ms(d))/2)
		}
	}
	if !insert || !s.timed {
		delete(s.inserted, c)
	}
	l.addUpdate(u)
	return true
}

// serve runs the predict batches against the current epoch and checks
// every label against Tree().Classify of the same epoch.
func (s *session) serve() bool {
	b := s.b
	snap, err := s.m.Snapshot()
	if !b.checkErr(err, "Snapshot") {
		return false
	}
	ref := s.m.Tree()
	runtime.GC()
	// A first, untimed pass over the batches builds the epoch's predictor
	// and chunk pool and touches every batch; the first batch's time is
	// kept apart. The servePasses passes after it are timed, so that the
	// timed batches are the steady state whatever the number of rounds in a
	// run.
	nb := len(s.ds.holdout)
	for i := 0; i < nb*(1+max(b.sp.servePasses, 1)); i++ {
		batch := s.ds.holdout[i%nb]
		var res *predict.Result
		var epoch uint64
		d, err := b.call("predict.Maintained", s.traced, func() (err error) {
			res, epoch, err = s.served.Predict(batch)
			return err
		})
		if !b.checkErr(err, "predict") {
			return false
		}
		ok := epoch == snap.Epoch && len(res.Labels) == len(batch.Tuples())
		for i, tp := range batch.Tuples() {
			if !ok {
				break
			}
			ok = res.Labels[i] == ref.Classify(tp)
		}
		if !b.check(ok, "predict batch labels differ from Tree().Classify at epoch %d (served epoch %d)", snap.Epoch, epoch) {
			return false
		}
		switch {
		case !s.timed || i > 0 && i < nb:
		case i == 0:
			b.firstPredictMS = append(b.firstPredictMS, ms(d))
		default:
			b.predictMS = append(b.predictMS, ms(d))
			b.predictRate = append(b.predictRate, float64(res.Tuples)/d.Seconds()/1e6)
		}
	}
	return true
}

// result turns the samples into the run's metrics.
func (b *bench) result() (*result, error) {
	r := &result{Attempted: b.attempted, Failed: b.failed, Correct: b.failed == 0 && b.attempted > 0, Metrics: map[string]metric{}}
	total := &ledger{}
	for _, ds := range b.sets {
		r.inputs = r.inputs*31 + ds.inputs
		switch {
		case ds.count != nil:
			total.add(*ds.count)
		case ds.unit != nil:
			total.add(*ds.unit)
		}
	}
	raw, err := json.Marshal(total)
	if err != nil {
		return nil, err
	}
	fmt.Printf("inputs fingerprint=%016x\n", r.inputs)
	fmt.Printf("samples setup=%d build=%d update=%d predict=%d\n", len(b.setupS), len(b.buildS), len(b.updateMS), len(b.predictMS))
	fmt.Printf("ledger %s datasets=%d parallelism=%d repeats=%v\n", raw, len(b.sets), b.o.parallelism, b.ledgerRepeats)
	fmt.Printf("oracle inmem.Build of D: median %.3f s; Grow median %.3f s\n", median(b.oracleS), median(b.buildS))
	fmt.Printf("predict batch p90 %.3f ms (not in BENCHMARK.json); first batch of an epoch: median %.3f ms\n",
		quantile(b.predictMS, 0.9), median(b.firstPredictMS))
	// The peak resident set is printed by every run but is a per-layer
	// metric of the traced run: on build-noisy it depends on which families
	// of each dataset fit the memory budget, and it spreads across seeds by
	// more than any end-to-end bound allows (README.md).
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fmt.Printf("peak resident set (VmHWM) %.1f MB\n", rss)
	if !r.Correct {
		return r, nil
	}
	if b.tr != nil {
		r.Metrics = b.tr.metrics(b)
		r.Metrics["proc.peak_rss_mb"] = metric{rss, "MB"}
		return r, nil
	}
	m := r.Metrics
	m["setup_s"] = metric{median(b.setupS), "s"}
	m["build_s"] = metric{median(b.buildS), "s"}
	m["scans_per_build"] = metric{median(b.buildScans), "count"}
	m["io_amp"] = metric{median(b.buildIOAmp), "ratio"}
	m["update_ms_p50"] = metric{median(b.updateMS), "ms"}
	m["update_ms_p90"] = metric{quantile(b.updateMS, 0.9), "ms"}
	m["predict_ms_p50"] = metric{median(b.predictMS), "ms"}
	m["predict_mtuples_per_s"] = metric{median(b.predictRate), "Mtuples/s"}
	return r, nil
}
