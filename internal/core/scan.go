package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/discretize"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
)

// The cleanup scan (scan 2 of the paper) is a pure aggregation: every
// tuple updates class counts, AVC counts, histogram buckets and moment
// statistics along its root-to-stick path, and lands in exactly one
// buffer (a stuck set S_n or a leaf family). All of those statistics are
// exact integer counts, so the scan is shard-parallel: the input stream
// is partitioned into chunks routed by worker goroutines into private
// per-worker shadow trees, which are then merged into the bnode fields in
// worker order before top-down processing. Merging is commutative for the
// counts and deterministic for the buffers (chunks are dealt round-robin,
// shards merge in worker order), and BOAT's verification pass guarantees
// the final tree is the exact reference tree regardless of the order
// tuples entered the buffers.
//
// The scan is level-synchronous over columnar chunks (data.Chunk): a node
// receives a batch of row indices into the chunk, applies the batched
// count kernels (CatAVC.AddBatch, Histogram.AddBatch, Moments.AddChunk)
// attribute by attribute, partitions the batch by its coarse split in one
// pass, and recurses. Compared to descending the tree once per tuple,
// this keeps each kernel's working set (one attribute column plus one
// statistic) hot across thousands of rows and makes the steady state
// allocation-free: chunks are pooled, index batches live in per-depth
// scratch buffers, and stuck/leaf rows are copied into the buffers' slab
// arenas.

// cleanupScan streams src down the subtree rooted at root, returning the
// number of tuples seen. Parallelism <= 1, or a known-size input of
// fewer than two chunks, follows the sequential code path; otherwise the
// scan is sharded across workers. The scan span's "mode" attribute names
// the path taken.
//
// Storage faults degrade gracefully: a sharded scan that fails with a
// SpillError has its statistics zeroed (resetScanState) and is rerun
// sequentially, and a sequential scan that fails with a SpillError gets
// one reset-and-retry before the error propagates. Both recoveries are
// exact — the scan is the sole contributor to every statistic it touches,
// so zero-and-rerun reproduces precisely the state a fault-free scan
// would have built. Logical errors (bad data, schema mismatch) are never
// retried.
func (t *Tree) cleanupScan(src data.Source, root *bnode, sp *obs.Span) (int64, error) {
	seen, err := t.runCleanupScan(src, root, sp)
	if err == nil {
		deriveRoutingCounts(root)
	}
	return seen, err
}

// runCleanupScan executes the scan passes (sharded with sequential
// fallback, or sequential with one retry) without the post-scan count
// derivation, which cleanupScan applies exactly once on success.
func (t *Tree) runCleanupScan(src data.Source, root *bnode, sp *obs.Span) (int64, error) {
	w := t.cfg.workers()
	// Tiny known-size inputs skip sharding: the overhead cannot pay off.
	if n, ok := src.Count(); w > 1 && (!ok || n >= int64(2*t.cfg.chunkRows())) {
		sp.SetAttr("mode", "sharded")
		sp.SetAttr("workers", w)
		seen, err := t.shardedScan(src, root, w, sp)
		if err == nil || !recoverableScanError(err) {
			return seen, err
		}
		// A storage fault broke the sharded scan. Scan-phase faults
		// leave the real tree untouched (shadow trees are private),
		// but a fault during merging may have partially mutated it,
		// so both cases are handled uniformly: zero every scan
		// statistic and fall back to the sequential path.
		t.cfg.Stats.RecordScanFallback()
		t.log.Warn("sharded cleanup scan hit a storage fault; falling back to sequential", "err", err)
		sp.SetAttr("fallback", "sequential")
		if rerr := resetScanState(root); rerr != nil {
			return seen, fmt.Errorf("core: resetting after failed sharded scan: %w", rerr)
		}
	} else {
		sp.SetAttr("mode", "sequential")
	}
	seen, err := t.sequentialScan(src, root, sp)
	if err != nil && recoverableScanError(err) {
		t.cfg.Stats.RecordScanRetry()
		t.log.Warn("sequential cleanup scan hit a storage fault; retrying once", "err", err)
		sp.SetAttr("retried", true)
		if rerr := resetScanState(root); rerr != nil {
			return seen, fmt.Errorf("core: resetting after failed cleanup scan: %w", rerr)
		}
		seen, err = t.sequentialScan(src, root, sp)
	}
	return seen, err
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

// deriveRoutingCounts reconstructs the per-node class statistics the
// chunked scan defers out of its partition loop: rows routed left are
// exactly the left child's intake and rows routed right the right
// child's, so for a numeric internal node lowCounts = left.classCounts,
// highCounts = right.classCounts, and classCounts = lowCounts +
// highCounts + the stuck rows counted during the scan. A categorical
// node's classCounts is simply the two intakes' sum (its partition
// strands no rows). Every term is an exact integer accumulated from the
// same tuple multiset the per-row path counts, so the derived values are
// identical to eagerly counted ones. Must run exactly once, after a
// successful chunked scan; leaves count their classes during the scan
// and are left untouched.
func deriveRoutingCounts(n *bnode) {
	if n == nil || n.isLeaf() {
		return
	}
	deriveRoutingCounts(n.left)
	deriveRoutingCounts(n.right)
	if n.coarse.kind == data.Numeric {
		for i, v := range n.left.classCounts {
			n.lowCounts[i] += v
		}
		for i, v := range n.right.classCounts {
			n.highCounts[i] += v
		}
		for i := range n.classCounts {
			n.classCounts[i] += n.lowCounts[i] + n.highCounts[i]
		}
	} else {
		for i := range n.classCounts {
			n.classCounts[i] += n.left.classCounts[i] + n.right.classCounts[i]
		}
	}
}

// sequentialScan is the single-goroutine cleanup scan: chunked iteration
// through an aliased shard view of the real tree, so the batch router is
// shared with the sharded path and no merge step is needed. sp (nil ok)
// receives the pipeline stage spans and zone-skip attribution.
func (t *Tree) sequentialScan(src data.Source, root *bnode, sp *obs.Span) (int64, error) {
	direct := newDirectTree(root)
	rows := t.cfg.chunkRows()
	sc := newRouteScratch(rows)
	start := time.Now()
	csc, err := data.ScanChunksPipelined(src, t.pipelineCfg())
	if err != nil {
		return 0, err
	}
	var seen int64
	ch := data.NewChunk(len(t.schema.Attributes), rows)
	var scanErr error
	for scanErr == nil {
		ch.Reset()
		err := csc.NextChunk(ch)
		if err == io.EOF {
			break
		}
		if err != nil {
			scanErr = err
			break
		}
		if ch.Len() == 0 {
			continue
		}
		seen += int64(ch.Len())
		scanErr = direct.routeChunk(ch, nil, sc, 0)
	}
	if cerr := csc.Close(); scanErr == nil {
		scanErr = cerr
	}
	attachPipelineSpans(sp, csc)
	t.recordPipelineStats(csc)
	if scanErr == nil {
		// The sequential scan reports as shard 0 so the per-shard
		// throughput metrics exist at every Parallelism setting.
		t.recordShardThroughput(0, seen, time.Since(start).Seconds())
		t.recordZoneSkips(sp, sc.skips)
	}
	return seen, scanErr
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

// recordZoneSkips publishes how many whole batches a scan routed by zone
// map alone.
func (t *Tree) recordZoneSkips(sp *obs.Span, skips int64) {
	if skips == 0 {
		return
	}
	t.met.blocksSkipped.Add(skips)
	sp.SetAttr("blocks_skipped", skips)
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

// shardNode is one worker's private shadow of a bnode: the same
// statistics fields, accumulated only from the tuples of that worker's
// chunks. ref supplies the (read-only during the scan) coarse criterion
// and tree structure. With direct set, the shadow is an alias instead:
// its slices and buffers are the real bnode's, so the sequential scan
// reuses the batch router with no merge step.
type shardNode struct {
	ref         *bnode
	direct      bool
	classCounts []int64

	// Internal-node shadow statistics.
	catCounts  []*split.CatAVC
	hist       []*discretize.Histogram
	moments    *split.Moments
	lowCounts  []int64
	highCounts []int64
	eqLow      int64
	pending    *data.TupleBag
	left       *shardNode
	right      *shardNode

	// Leaf shadow family.
	family *data.TupleBag
}

// newShardTree mirrors the subtree rooted at n. budget is the worker's
// private MemBudget slice, so concurrent shard buffers spill
// independently without exceeding the global budget.
func (t *Tree) newShardTree(n *bnode, budget *data.MemBudget) *shardNode {
	if n == nil {
		return nil
	}
	s := &shardNode{ref: n, classCounts: make([]int64, t.schema.ClassCount)}
	if n.isLeaf() {
		s.family = data.NewTupleBagEnv(t.schema, t.spillEnv(budget))
		return s
	}
	s.catCounts = make([]*split.CatAVC, len(t.schema.Attributes))
	s.hist = make([]*discretize.Histogram, len(t.schema.Attributes))
	for i := range t.schema.Attributes {
		if n.catCounts[i] != nil {
			s.catCounts[i] = split.NewCatAVC(t.schema.Attributes[i].Cardinality, t.schema.ClassCount)
		}
		if n.hist[i] != nil {
			s.hist[i] = discretize.NewHistogram(n.hist[i].Boundaries, t.schema.ClassCount)
		}
	}
	if n.moments != nil {
		s.moments = split.NewMoments(t.schema)
	}
	if n.coarse.kind == data.Numeric {
		s.lowCounts = make([]int64, t.schema.ClassCount)
		s.highCounts = make([]int64, t.schema.ClassCount)
		s.pending = data.NewTupleBagEnv(t.schema, t.spillEnv(budget))
	}
	s.left = t.newShardTree(n.left, budget)
	s.right = t.newShardTree(n.right, budget)
	return s
}

// newDirectTree builds an aliased shard view of the subtree: every slice
// and buffer is the real bnode's own, and the scalar eqLow is flushed
// through ref. Single-goroutine use only.
func newDirectTree(n *bnode) *shardNode {
	if n == nil {
		return nil
	}
	s := &shardNode{ref: n, direct: true, classCounts: n.classCounts}
	if n.isLeaf() {
		s.family = n.family
		return s
	}
	s.catCounts = n.catCounts
	s.hist = n.hist
	s.moments = n.moments
	if n.coarse.kind == data.Numeric {
		s.lowCounts = n.lowCounts
		s.highCounts = n.highCounts
		s.pending = n.pending
	}
	s.left = newDirectTree(n.left)
	s.right = newDirectTree(n.right)
	return s
}

// zoneRoute decides whether a chunk's zone summary proves that every row
// of the chunk routes down one side of the coarse criterion: -1 all-left,
// +1 all-right, 0 undecided. The decisions are exactness-preserving —
// they reproduce the per-row partition bit for bit:
//
//   - numeric all-right needs z.Min > c.hi: every bounded value takes the
//     v > hi branch, and any NaN rows (excluded from Min/Max) take the
//     same pinned right edge, so HasNaN does not block the skip;
//   - numeric all-left needs z.Max < c.lo *strictly* and no NaN: no row
//     can be stuck, and no row equals c.lo, so eqLow stays untouched;
//   - categorical skips need the exact code bitmap (CodesValid): codes
//     covered by the subset all go left, codes disjoint from it (or >= 64,
//     which never set a bitmap bit and never match the subset) all go
//     right.
//
// The zone summarizes the whole chunk, so the decision holds for every
// subset of its rows — an idx batch deep in the descent included.
func zoneRoute(c *coarseCrit, z data.ColZone) int {
	if c.kind == data.Categorical {
		if !z.CodesValid {
			return 0
		}
		if z.Codes&^c.subset == 0 && z.Codes != 0 {
			return -1
		}
		if z.Codes&c.subset == 0 {
			return +1
		}
		return 0
	}
	if !z.Valid {
		return 0
	}
	if z.Min > c.hi {
		return +1
	}
	if !z.HasNaN && z.Max < c.lo {
		return -1
	}
	return 0
}

// routeScratch holds the per-depth index buffers of one goroutine's
// level-synchronous descent: the partition written at depth d stays live
// while the children recurse with the buffers of depth d+1 and below.
// Buffers are allocated once per depth and reused for every chunk.
type routeScratch struct {
	rows   int
	levels [][3][]int32 // per depth: left, right, stuck

	// skips counts the nodes at which a whole batch was routed by zone
	// map alone this scan.
	skips int64
}

func newRouteScratch(rows int) *routeScratch { return &routeScratch{rows: rows} }

// at returns empty left/right/stuck index buffers for a recursion depth.
func (sc *routeScratch) at(depth int) (left, right, stuck []int32) {
	for len(sc.levels) <= depth {
		sc.levels = append(sc.levels, [3][]int32{
			make([]int32, 0, sc.rows),
			make([]int32, 0, sc.rows),
			make([]int32, 0, sc.rows),
		})
	}
	l := &sc.levels[depth]
	return l[0][:0], l[1][:0], l[2][:0]
}

// routeChunk is the level-synchronous insert-only cleanup-scan router:
// it processes the chunk rows named by idx (all rows when idx is nil) at
// this node — batched statistics updates, then a one-pass partition by
// the coarse split — and recurses into the children with the partition's
// index batches. depth is the recursion depth (an index into sc's
// buffers, not the node's depth in the full tree).
func (s *shardNode) routeChunk(ch *data.Chunk, idx []int32, sc *routeScratch, depth int) error {
	classes := ch.Classes()
	n := s.ref
	if n.isLeaf() {
		if idx == nil {
			for _, c := range classes {
				s.classCounts[c]++
			}
		} else {
			for _, r := range idx {
				s.classCounts[classes[r]]++
			}
		}
		if s.direct && (idx == nil || len(idx) > 0) {
			n.dirty = true
		}
		return s.family.AddChunkRows(ch, idx)
	}
	for i, cc := range s.catCounts {
		if cc != nil {
			cc.AddBatch(ch.Col(i), classes, idx)
		}
	}
	for i, h := range s.hist {
		if h != nil {
			h.AddBatch(ch.Col(i), classes, idx)
		}
	}
	if s.moments != nil {
		s.moments.AddChunk(ch, idx)
	}
	// The partition reads only the split column: an internal node's class
	// counting is deferred to deriveRoutingCounts, which reconstructs
	// classCounts/lowCounts/highCounts bottom-up after the scan from the
	// children's intake (exact integer sums, so the deferral is invisible
	// in the results). Only the stuck rows — which descend no further —
	// have their classes counted here.
	c := n.coarse
	// Zone-map pushdown: when the chunk's column summary proves every row
	// routes down one side, descend the whole batch directly and skip the
	// partition kernel. The statistics kernels above already ran (they
	// need every row at this node), and the insert-only scan's deferred
	// class counting makes the bypass free of bookkeeping: a skip decision
	// implies no stuck rows and no v == c.lo rows, so eqLow and the stuck
	// path are untouched by construction.
	if z, ok := ch.Zone(c.attr); ok {
		if dir := zoneRoute(c, z); dir != 0 {
			sc.skips++
			if dir < 0 {
				return s.left.routeChunk(ch, idx, sc, depth+1)
			}
			return s.right.routeChunk(ch, idx, sc, depth+1)
		}
	}
	col := ch.Col(c.attr)
	left, right, stuck := sc.at(depth)
	if c.kind == data.Categorical {
		if idx == nil {
			for r, v := range col {
				if code := uint(v); code < 64 && c.subset&(1<<code) != 0 {
					left = append(left, int32(r))
				} else {
					right = append(right, int32(r))
				}
			}
		} else {
			for _, r := range idx {
				if code := uint(col[r]); code < 64 && c.subset&(1<<code) != 0 {
					left = append(left, r)
				} else {
					right = append(right, r)
				}
			}
		}
	} else {
		var eq int64
		if idx == nil {
			for r, v := range col {
				switch {
				case v <= c.lo:
					if v == c.lo {
						eq++
					}
					left = append(left, int32(r))
				case v > c.hi || v != v:
					// NaN takes the pinned missing-value edge (right),
					// matching Tree.route and the compiled inference layout;
					// it must never stick in S_n.
					right = append(right, int32(r))
				default:
					stuck = append(stuck, int32(r))
				}
			}
		} else {
			for _, r := range idx {
				v := col[r]
				switch {
				case v <= c.lo:
					if v == c.lo {
						eq++
					}
					left = append(left, r)
				case v > c.hi || v != v:
					right = append(right, r)
				default:
					stuck = append(stuck, r)
				}
			}
		}
		for _, r := range stuck {
			s.classCounts[classes[r]]++
		}
		if s.direct {
			n.eqLow += eq
		} else {
			s.eqLow += eq
		}
		if len(stuck) > 0 {
			// Inside the confidence interval: the rows stick at n, copied
			// from the chunk into the bag's arena in stream order.
			if err := s.pending.AddChunkRows(ch, stuck); err != nil {
				return err
			}
		}
	}
	if len(left) > 0 {
		if err := s.left.routeChunk(ch, left, sc, depth+1); err != nil {
			return err
		}
	}
	if len(right) > 0 {
		return s.right.routeChunk(ch, right, sc, depth+1)
	}
	return nil
}

// merge folds the shard's statistics and buffers into the real tree and
// releases the shard's resources. Called once per shard in worker order,
// sequentially, after all workers have finished.
func (s *shardNode) merge() error {
	if s == nil {
		return nil
	}
	n := s.ref
	for i, v := range s.classCounts {
		n.classCounts[i] += v
	}
	if n.isLeaf() {
		if s.family.Len() > 0 {
			n.dirty = true
			if err := s.family.ForEach(n.family.Add); err != nil {
				s.family.Close()
				return err
			}
		}
		return s.family.Close()
	}
	for i, cc := range n.catCounts {
		if cc != nil {
			cc.Merge(s.catCounts[i])
		}
	}
	for i, h := range n.hist {
		if h != nil {
			h.Merge(s.hist[i])
		}
	}
	if n.moments != nil {
		n.moments.Merge(s.moments)
	}
	if n.coarse.kind == data.Numeric {
		for i, v := range s.lowCounts {
			n.lowCounts[i] += v
		}
		for i, v := range s.highCounts {
			n.highCounts[i] += v
		}
		n.eqLow += s.eqLow
		if s.pending.Len() > 0 {
			if err := s.pending.ForEach(n.pending.Add); err != nil {
				s.pending.Close()
				return err
			}
		}
		if err := s.pending.Close(); err != nil {
			return err
		}
	}
	if err := s.left.merge(); err != nil {
		return err
	}
	return s.right.merge()
}

// closeShard releases a shard's buffers without merging (error paths).
func (s *shardNode) close() {
	if s == nil {
		return
	}
	if s.family != nil {
		s.family.Close()
	}
	if s.pending != nil {
		s.pending.Close()
	}
	s.left.close()
	s.right.close()
}

// shardedScan partitions the stream into pooled columnar chunks dealt
// round-robin to w workers, each batch-routing into a private shadow
// tree, then merges the shadow trees in worker order. The round-robin
// deal plus ordered merge makes the merged buffers deterministic for a
// given worker count.
func (t *Tree) shardedScan(src data.Source, root *bnode, w int, sp *obs.Span) (int64, error) {
	budgets := t.budget.Split(w)
	shards := make([]*shardNode, w)
	for i := range shards {
		shards[i] = t.newShardTree(root, budgets[i])
	}
	rows := t.cfg.chunkRows()
	pool := data.NewChunkPool(len(t.schema.Attributes), rows)
	start := time.Now()

	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		workErr error
		failed  = make(chan struct{})
		routed  = make([]int64, w) // per-shard tuple intake, for throughput metrics
		skipped = make([]int64, w) // per-shard zone-skip counts
	)
	fail := func(err error) {
		errOnce.Do(func() {
			workErr = err
			close(failed)
		})
	}
	chans := make([]chan *data.Chunk, w)
	for i := range chans {
		chans[i] = make(chan *data.Chunk, 2)
		wg.Add(1)
		go func(shard *shardNode, in <-chan *data.Chunk, routed, skipped *int64) {
			defer wg.Done()
			sc := newRouteScratch(rows)
			ok := true
			for chunk := range in {
				if ok {
					if err := shard.routeChunk(chunk, nil, sc, 0); err != nil {
						fail(err)
						ok = false // drain after failure so the dealer never blocks
					}
					*routed += int64(chunk.Len())
				}
				pool.Put(chunk)
			}
			*skipped = sc.skips
		}(shards[i], chans[i], &routed[i], &skipped[i])
	}

	// Deal chunks round-robin. The dealer owns each chunk until the send;
	// the worker returns it to the pool after routing.
	var seen int64
	var csc data.ChunkScanner
	scanErr := func() error {
		var err error
		csc, err = data.ScanChunksPipelined(src, t.pipelineCfg())
		if err != nil {
			return err
		}
		defer csc.Close()
		next := 0
		for {
			chunk := pool.Get()
			err := csc.NextChunk(chunk)
			if err == io.EOF {
				pool.Put(chunk)
				return csc.Close()
			}
			if err != nil {
				pool.Put(chunk)
				return err
			}
			if chunk.Len() == 0 {
				pool.Put(chunk)
				continue
			}
			seen += int64(chunk.Len())
			select {
			case chans[next%w] <- chunk:
				next++
			case <-failed:
				pool.Put(chunk)
				return workErr
			}
		}
	}()
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	attachPipelineSpans(sp, csc)
	t.recordPipelineStats(csc)
	if scanErr == nil && workErr != nil {
		scanErr = workErr
	}
	if scanErr != nil {
		for _, s := range shards {
			s.close()
		}
		return seen, scanErr
	}

	secs := time.Since(start).Seconds()
	var skips int64
	for i, n := range routed {
		t.recordShardThroughput(i, n, secs)
		skips += skipped[i]
	}
	t.recordZoneSkips(sp, skips)
	for i, s := range shards {
		if err := s.merge(); err != nil {
			// Close the failed shard too: merge returns mid-walk with its
			// un-merged buffers (and their temp files) still open. Close is
			// idempotent, so re-closing already-merged buffers is safe.
			for _, rest := range shards[i:] {
				rest.close()
			}
			return seen, fmt.Errorf("core: merging scan shard %d: %w", i, err)
		}
	}
	return seen, nil
}
