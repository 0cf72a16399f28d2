package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/obs"
)

// The cleanup scan (scan 2 of the paper) is a pure aggregation: every
// tuple updates class counts, AVC counts, histogram buckets and moment
// statistics along its root-to-stick path, and lands in exactly one
// buffer (a stuck set S_n or a leaf family). It runs through the chunk
// router (router.go) with weight +1 — the same router Insert and Delete
// use — so its parallelism is the router's subtree forking, bounded by
// Config.Parallelism, and its buffers are the tree's own, charged against
// the tree's one memory budget.

// cleanupScan streams src down the subtree rooted at root, returning the
// number of tuples seen.
//
// Storage faults degrade gracefully: a scan that fails with a storage
// fault (recoverableScanError) has its statistics zeroed (resetScanState)
// and gets one retry before the error propagates. The recovery is exact —
// the scan is the sole contributor to every statistic it touches, so
// zero-and-rerun reproduces precisely the state a fault-free scan would
// have built. Logical errors (bad data, schema mismatch) are never
// retried.
func (t *Tree) cleanupScan(src data.Source, root *bnode, sp *obs.Span) (int64, error) {
	seen, err := t.scanPass(src, root, sp)
	if err != nil && recoverableScanError(err) {
		t.cfg.Stats.RecordScanRetry()
		t.log.Warn("cleanup scan hit a storage fault; retrying once", "err", err)
		sp.SetAttr("retried", true)
		if rerr := resetScanState(root); rerr != nil {
			return seen, fmt.Errorf("core: resetting after failed cleanup scan: %w", rerr)
		}
		seen, err = t.scanPass(src, root, sp)
	}
	return seen, err
}

// scanPass is one cleanup-scan attempt: every chunk of src routed with
// weight +1. sp (nil ok) receives the pipeline stage spans and zone-skip
// attribution.
func (t *Tree) scanPass(src data.Source, root *bnode, sp *obs.Span) (int64, error) {
	start := time.Now()
	res, err := t.routeSource(src, root, +1, newRouteScratch(t.cfg.chunkRows()), sp)
	if err != nil {
		return res.tuples, err
	}
	if secs := time.Since(start).Seconds(); secs > 0 {
		t.met.scanRate.Set(float64(res.tuples) / secs)
	}
	if res.skips > 0 {
		t.met.blocksSkipped.Add(res.skips)
		sp.SetAttr("blocks_skipped", res.skips)
	}
	return res.tuples, nil
}

// recoverableScanError reports whether a failed scan is worth rerunning:
// storage faults — spill-path failures, block-level read/decode errors
// (which wrap transient and permanent filesystem faults alike), and bare
// transient faults. The reset-and-rerun recovery is exact either way; a
// permanently corrupt file simply fails again with the same typed error,
// costing one wasted pass. Logical errors (schema mismatch, routing
// bugs) are never retried.
func recoverableScanError(err error) bool {
	if data.IsSpillError(err) || data.IsTransient(err) {
		return true
	}
	var be *data.BlockError
	return errors.As(err, &be)
}

// attachPipelineSpans records a pipelined scanner's stage times — read
// (filesystem wait), decode (checksum + expand, cumulative across
// workers), deliver (consumer wait on the ordered ring) — as completed
// child spans of the scan span, plus block/byte volume attributes. Must
// run after the scanner is closed: the stage counters quiesce at Close.
// A non-pipelined scanner (row files, in-memory sources, Depth < 0)
// attaches nothing.
func attachPipelineSpans(sp *obs.Span, csc data.ChunkScanner) {
	pr, ok := csc.(data.PipelineReporter)
	if !ok || sp == nil {
		return
	}
	ps := pr.PipelineStats()
	if !ps.Enabled {
		return
	}
	sp.SetAttr("pipeline_depth", ps.Depth)
	sp.SetAttr("pipeline_workers", ps.Workers)
	sp.SetAttr("pipeline_blocks", ps.Blocks)
	sp.SetAttr("pipeline_phys_bytes", ps.PhysBytes)
	sp.AddCompleted("pipeline-read", ps.Start, ps.Read)
	sp.AddCompleted("pipeline-decode", ps.Start, ps.Decode)
	sp.AddCompleted("pipeline-deliver", ps.Start, ps.Deliver)
}

// resetScanState zeroes every statistic and buffer a cleanup scan writes
// (class counts, AVC counts, histograms, moments, interval counts, stuck
// sets, leaf families), so a failed scan can be rerun from scratch. It is
// only correct when the scan being rerun is the sole contributor to those
// statistics — true for the cleanup scan, which always runs against a
// freshly built skeleton. Resetting a bag also clears its poisoned state,
// provided its overflow file can be truncated.
func resetScanState(n *bnode) error {
	if n == nil {
		return nil
	}
	clear(n.classCounts)
	if n.isLeaf() {
		n.dirty = true
		return n.family.Reset()
	}
	for _, cc := range n.catCounts {
		if cc != nil {
			cc.Reset()
		}
	}
	for _, h := range n.hist {
		if h != nil {
			h.Reset()
		}
	}
	if n.moments != nil {
		n.moments.Reset()
	}
	if n.coarse.kind == data.Numeric {
		clear(n.lowCounts)
		clear(n.highCounts)
		n.eqLow = 0
		if err := n.pending.Reset(); err != nil {
			return err
		}
	}
	if err := resetScanState(n.left); err != nil {
		return err
	}
	return resetScanState(n.right)
}
