package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/boatml/boat/internal/bootstrap"
	"github.com/boatml/boat/internal/core"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// tracing collects a traced run's per-layer numbers. Core's own spans and
// registry are read as core emits them; the benchmark adds only root spans
// named "bench.<package>.<Func>" around the calls it makes itself.
type tracing struct {
	tracer *obs.Tracer
	reg    *obs.Registry

	// Untraced and traced Grow wall times, for the tracing overhead.
	untraced, traced []float64
	// Heap bytes allocated per untraced Grow.
	allocBytes []float64
	// Sums over traced Grows: I/O accounting and registry counter deltas.
	io       iostats.Snapshot
	counters map[string]int64
	// classifyRate holds the Mtuples/s of each ClassifyChunkScratch probe.
	classifyRate []float64
}

func newTracing() *tracing {
	return &tracing{tracer: obs.NewTracer(nil), reg: obs.NewRegistry(), counters: map[string]int64{}}
}

// call runs f, the benchmark's call into a module's public function, and
// times it; when traced it is wrapped in a "bench.<name>" root span.
func (b *bench) call(name string, traced bool, f func() error) (time.Duration, error) {
	var sp *obs.Span
	if traced {
		sp = b.tr.tracer.Start("bench." + name)
	}
	start := time.Now()
	err := f()
	d := time.Since(start)
	sp.End()
	return d, err
}

// buildCounters are the registry counters summed over traced Grows.
var buildCounters = []string{
	"bootstrap.coarse_nodes", "bootstrap.disagreements",
	"verify.ci.hit", "verify.ci.miss",
	"scan.tuples", "scan.stuck.tuples",
	"rebuild.frontier", "rebuild.subtrees",
	"pipeline.read_ns", "pipeline.deliver_ns",
}

func (t *tracing) counterValues() map[string]int64 {
	out := make(map[string]int64, len(buildCounters))
	for _, name := range buildCounters {
		out[name] = t.reg.Counter(name).Value()
	}
	return out
}

// noteBuild records one Grow of a traced run. before holds the registry
// counters read just before the Grow.
func (t *tracing) noteBuild(traced bool, d time.Duration, alloc uint64, st *iostats.Stats, before map[string]int64) {
	if !traced {
		t.untraced = append(t.untraced, d.Seconds())
		t.allocBytes = append(t.allocBytes, float64(alloc))
		return
	}
	t.traced = append(t.traced, d.Seconds())
	t.io = t.io.Add(st.Snapshot())
	for name, v := range t.counterValues() {
		t.counters[name] += v - before[name]
	}
}

// probeLayers times one call into each layer's public entry point on the
// workload's own data: a pipelined scan and a reservoir sample of D, node
// statistics, the bootstrap coarse tree and an in-memory build on that
// sample, and compiling and classifying with the model's current tree.
func (t *tracing) probeLayers(b *bench, ds *dataset, m *core.Tree) error {
	path := ds.path
	if path == "" {
		// maintain-serve reads no file; the data-layer probes get a copy of D.
		path = filepath.Join(b.o.dir, "probe.boatc")
		if _, err := data.WriteColFile(path, data.NewMemSource(b.schema, ds.base), 0); err != nil {
			return err
		}
		defer os.Remove(path)
	}
	src, err := data.Open(path)
	if err != nil {
		return err
	}
	var rows int64
	if _, err := b.call("data.ScanChunksPipelined", true, func() error {
		sc, err := data.ScanChunksPipelined(src, data.PipelineConfig{})
		if err != nil {
			return err
		}
		ch := data.NewChunk(len(b.schema.Attributes), data.DefaultChunkRows)
		for {
			ch.Reset()
			if err := sc.NextChunk(ch); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				sc.Close()
				return err
			}
			rows += int64(ch.Len())
		}
		return sc.Close()
	}); err != nil {
		return err
	}
	if !b.check(rows == b.n(), "probe scan read %d tuples, want %d", rows, b.n()) {
		return nil
	}

	cfg := b.coreConfig(nil, false)
	var sample []data.Tuple
	if _, err := b.call("data.ReservoirSample", true, func() (err error) {
		sample, err = data.ReservoirSample(src, cfg.SampleSize, rand.New(rand.NewSource(b.o.seed)))
		return err
	}); err != nil {
		return err
	}
	b.call("split.BuildNodeStats", true, func() error {
		split.BuildNodeStats(b.schema, sample)
		return nil
	})
	// The sampling-phase configuration core derives for a Grow of D.
	bcfg := bootstrap.Config{
		Trees:         cfg.BootstrapTrees,
		SubsampleSize: max(cfg.SampleSize/4, 1), // core's default
		TreeConfig:    b.growConfig(),
		Seed:          b.o.seed,
		Parallelism:   b.o.parallelism,
	}
	if g := &bcfg.TreeConfig; g.StopThreshold > 0 {
		g.StopThreshold = max(g.StopThreshold*int64(bcfg.SubsampleSize)/b.n(), 1)
	} else {
		g.StopAtThreshold = false
	}
	if _, err := b.call("bootstrap.BuildCoarse", true, func() error {
		_, _, err := bootstrap.BuildCoarse(b.schema, sample, bcfg)
		return err
	}); err != nil {
		return err
	}
	b.call("inmem.Build", true, func() error {
		inmem.Build(b.schema, sample, b.growConfig())
		return nil
	})

	mt := m.Tree()
	var flat *tree.FlatTree
	if _, err := b.call("tree.Compile", true, func() (err error) {
		flat, err = tree.Compile(mt)
		return err
	}); err != nil {
		return err
	}
	var tuples int
	var elapsed time.Duration
	for _, batch := range ds.holdout {
		ts := batch.Tuples()
		ch := data.NewChunk(len(b.schema.Attributes), len(ts))
		for _, tp := range ts {
			ch.AppendTuple(tp)
		}
		out := make([]int, len(ts))
		d, _ := b.call("tree.ClassifyChunkScratch", true, func() error {
			flat.ClassifyChunkScratch(ch, out, tree.NewClassifyScratch())
			return nil
		})
		ok := true
		for i, tp := range ts {
			ok = ok && out[i] == mt.Classify(tp)
		}
		b.check(ok, "ClassifyChunkScratch labels differ from Tree().Classify")
		tuples += len(ts)
		elapsed += d
	}
	t.classifyRate = append(t.classifyRate, float64(tuples)/elapsed.Seconds()/1e6)
	return nil
}

// Span names of core's build phases and of its update phases.
var (
	buildPhases = map[string]bool{
		"build": true, "sampling": true, "bootstrap": true, "skeleton": true,
		"cleanup-scan": true, "process": true, "verification": true,
		"leaf-completion": true, "rebuild": true,
	}
	updatePhases = map[string]bool{
		"insert": true, "delete": true, "route-chunk": true,
		"verification": true, "leaf-completion": true,
	}
)

// interval is one stretch of wall-clock time spent in the named span.
type interval struct {
	a, b time.Time
	name string
}

// selfTimes adds the self time of s and of every phase span below it to
// out, keyed by span name. A phase's self time is its interval minus the
// union of its nearest phase descendants' intervals; spans that are not
// phases (bootstrap-trees, intersect, pipeline stages) count as their
// nearest phase ancestor's own time. Where concurrent spans' self times
// overlap (rebuilds completing leaves in parallel), each instant is split
// evenly among them, so the self times sum to s's wall-clock time.
func selfTimes(s *obs.Span, phases map[string]bool, out map[string]time.Duration) {
	var segs []interval
	selfIntervals(s, phases, &segs)
	type event struct {
		t     time.Time
		start bool
		i     int
	}
	events := make([]event, 0, 2*len(segs))
	for i, sg := range segs {
		events = append(events, event{sg.a, true, i}, event{sg.b, false, i})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].t.Before(events[j].t) })
	active := map[int]bool{}
	for i, e := range events {
		if i > 0 && len(active) > 0 {
			share := e.t.Sub(events[i-1].t) / time.Duration(len(active))
			for j := range active {
				out[segs[j].name] += share
			}
		}
		if e.start {
			active[e.i] = true
		} else {
			delete(active, e.i)
		}
	}
}

// selfIntervals appends the stretches of s's interval not covered by its
// nearest phase descendants, then recurses into those descendants.
func selfIntervals(s *obs.Span, phases map[string]bool, out *[]interval) {
	var desc []*obs.Span
	var collect func(*obs.Span)
	collect = func(p *obs.Span) {
		for _, c := range p.Children() {
			if phases[c.Name()] {
				desc = append(desc, c)
			} else {
				collect(c)
			}
		}
	}
	collect(s)
	lo, hi := s.StartTime(), s.StartTime().Add(s.Duration())
	ivs := make([]interval, 0, len(desc))
	for _, c := range desc {
		a, e := c.StartTime(), c.StartTime().Add(c.Duration())
		if a.Before(lo) {
			a = lo
		}
		if e.After(hi) {
			e = hi
		}
		if e.After(a) {
			ivs = append(ivs, interval{a: a, b: e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	cur := lo
	for _, iv := range ivs {
		if iv.a.After(cur) {
			*out = append(*out, interval{cur, iv.a, s.Name()})
		}
		if iv.b.After(cur) {
			cur = iv.b
		}
	}
	if hi.After(cur) {
		*out = append(*out, interval{cur, hi, s.Name()})
	}
	for _, c := range desc {
		selfIntervals(c, phases, out)
	}
}

// rebuildTuples sums the "tuples" attribute of every rebuild span below s.
func rebuildTuples(s *obs.Span) int64 {
	var n int64
	for _, c := range s.Children() {
		if c.Name() == "rebuild" {
			for _, a := range c.Attrs() {
				if v, ok := a.Value.(int64); ok && a.Key == "tuples" {
					n += v
				}
			}
		}
		n += rebuildTuples(c)
	}
	return n
}

// metrics computes the per-layer metrics of a traced run.
func (t *tracing) metrics(b *bench) map[string]metric {
	probe := map[string][]float64{}
	build := map[string]time.Duration{}
	update := map[string]time.Duration{}
	var buildWall time.Duration
	var builds, updates, rbTuples int64
	for _, r := range t.tracer.Roots() {
		switch name := r.Name(); {
		case name == "build":
			builds++
			buildWall += r.Duration()
			rbTuples += rebuildTuples(r)
			selfTimes(r, buildPhases, build)
		case name == "insert" || name == "delete":
			updates++
			selfTimes(r, updatePhases, update)
		case strings.HasPrefix(name, "bench."):
			call := strings.TrimPrefix(name, "bench.")
			probe[call] = append(probe[call], ms(r.Duration()))
		}
	}
	perBuild := func(d time.Duration) float64 { return ms(d) / float64(max(builds, 1)) }
	perUpdate := func(d time.Duration) float64 { return ms(d) / float64(max(updates, 1)) }
	c := func(name string) float64 { return float64(t.counters[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	var phaseSum time.Duration
	for _, d := range build {
		phaseSum += d
	}
	fmt.Printf("trace builds=%d updates=%d per build: span_ms=%.1f phase_self_sum_ms=%.1f untraced_build_ms=%.1f\n",
		builds, updates, perBuild(buildWall), perBuild(phaseSum), 1000*median(t.untraced))
	for _, name := range []string{"build", "sampling", "bootstrap", "skeleton", "cleanup-scan", "process", "verification", "leaf-completion", "rebuild"} {
		fmt.Printf("trace self %-16s %10.2f ms/build  %5.1f%%\n", name, perBuild(build[name]), 100*ratio(float64(build[name]), float64(buildWall)))
	}

	untraced := median(t.untraced)
	lat := t.reg.Latency("predict.chunk_latency").Quantiles(0.5)[0]
	spill := float64(t.io.SpillBytes) / float64(max(builds, 1))
	dBytes := float64(b.n()) * ratio(float64(t.io.BytesRead), float64(t.io.TuplesRead))
	return map[string]metric{
		"data.scan_ms":                   {median(probe["data.ScanChunksPipelined"]), "ms"},
		"data.sample_ms":                 {median(probe["data.ReservoirSample"]), "ms"},
		"data.phys_per_logical":          {ratio(float64(t.io.PhysBytesRead), float64(t.io.BytesRead)), "ratio"},
		"data.pipeline_read_stall_ms":    {c("pipeline.read_ns") / 1e6 / float64(max(builds, 1)), "ms"},
		"data.pipeline_deliver_stall_ms": {c("pipeline.deliver_ns") / 1e6 / float64(max(builds, 1)), "ms"},
		"data.spill_mb":                  {spill / 1e6, "MB"},
		"data.spill_write_amp":           {ratio(spill, dBytes), "ratio"},
		"split.node_stats_ms":            {median(probe["split.BuildNodeStats"]), "ms"},
		"bootstrap.build_coarse_ms":      {median(probe["bootstrap.BuildCoarse"]), "ms"},
		"bootstrap.agreement":            {ratio(c("bootstrap.coarse_nodes"), c("bootstrap.coarse_nodes")+c("bootstrap.disagreements")), "ratio"},
		"inmem.build_ms":                 {median(probe["inmem.Build"]), "ms"},
		"core.sampling_ms":               {perBuild(build["sampling"]), "ms"},
		"core.bootstrap_ms":              {perBuild(build["bootstrap"]), "ms"},
		"core.skeleton_ms":               {perBuild(build["skeleton"]), "ms"},
		"core.cleanup_scan_ms":           {perBuild(build["cleanup-scan"]), "ms"},
		"core.process_ms":                {perBuild(build["process"] + build["verification"]), "ms"},
		"core.rebuild_ms":                {perBuild(build["rebuild"]), "ms"},
		"core.leaf_completion_ms":        {perBuild(build["leaf-completion"]), "ms"},
		"core.route_chunk_ms":            {perUpdate(update["route-chunk"]), "ms"},
		"core.update_process_ms":         {perUpdate(update["verification"] + update["leaf-completion"]), "ms"},
		"core.stuck_frac":                {ratio(c("scan.stuck.tuples"), c("scan.tuples")), "ratio"},
		"core.verify_hit_ratio":          {ratio(c("verify.ci.hit"), c("verify.ci.hit")+c("verify.ci.miss")), "ratio"},
		"core.rebuilds":                  {(c("rebuild.frontier") + c("rebuild.subtrees")) / float64(max(builds, 1)), "count"},
		"core.rebuild_tuples":            {float64(rbTuples) / float64(max(builds, 1)), "count"},
		"core.refits_per_update":         {float64(t.reg.Counter("leaf.refitted").Value()) / float64(max(updates, 1)), "count"},
		"core.alloc_mb_per_build":        {median(t.allocBytes) / 1e6, "MB"},
		"tree.compile_ms":                {median(probe["tree.Compile"]), "ms"},
		"tree.classify_mtuples_per_s":    {median(t.classifyRate), "Mtuples/s"},
		"predict.chunk_us_p50":           {float64(lat) / float64(time.Microsecond), "us"},
		"obs.trace_overhead_frac":        {(median(t.traced) - untraced) / untraced, "ratio"},
	}
}
