package core

import (
	"io"
	"sync"
	"sync/atomic"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/obs"
)

// The chunk router streams columnar batches down the tree
// level-synchronously instead of one root-to-stick descent per tuple. It
// is the one router of the system: the cleanup scan (weight +1 over every
// chunk of D, scan.go) and Insert/Delete (weight +1 / -1 over the update
// chunk, incremental.go) both run through it, as the paper streams an
// update chunk "down exactly as in the cleanup phase". Each node applies
// the signed batch kernels (CatAVC.AddBatchW, Histogram.AddBatchW,
// Moments.AddChunkW), partitions the batch three ways by its coarse
// criterion, and recurses with the partition's index sets. Compared to a
// per-tuple descent this keeps each kernel's working set (one attribute
// column plus one statistic) hot across thousands of rows, and the steady
// state is allocation-free: index batches live in per-depth scratch
// buffers and stuck/leaf rows are copied into the buffers' slab arenas.
//
// Counting is eager: every counter a tuple's root-to-stick path touches in
// Tree.route is applied here, weighted, from the batch. All statistics are
// signed integer counts and the buffers receive their rows per node in
// stream order, so the router is exactly equivalent to the per-tuple
// descent — TestScanModesAgree (scan) and TestUpdateChunkedMatchesRow
// (updates) pin that down.
//
// Concurrency: disjoint subtrees share no mutable state (each node's
// counters, statistics, and buffers are touched only while routing through
// that node), so once a batch is partitioned the two children can be
// routed concurrently. The router forks the larger descents onto worker
// goroutines up to Config.Parallelism, each with its own partition
// scratch; the shared substrate (the memory budget, iostats, the metrics
// registry) is internally synchronized. The resulting tree is identical
// at every Parallelism setting: every per-node mutation is performed by
// the single worker that owns that subtree for the batch, in the same
// order as the sequential descent. A barrier at the end of each batch
// (the wait in run) keeps cross-batch ordering intact.

// forkMinRows is the smallest index set worth a goroutine handoff: below
// this, partition fan-out and scratch handling cost more than they save.
const forkMinRows = 1024

// chunkRouter carries one routing pass (a cleanup scan or one update):
// the signed weight, the in-line descent's scratch, the worker token
// bucket (nil when sequential), the scratch pool for forked descents, and
// first-error collection. It is built once per pass and reused for every
// chunk of it.
type chunkRouter struct {
	w       int64
	sc      *routeScratch
	sem     chan struct{}
	scratch sync.Pool
	wg      sync.WaitGroup

	// skips counts, over the whole pass, the nodes at which a whole batch
	// was routed by zone map alone (atomic: forked descents skip
	// concurrently).
	skips atomic.Int64

	mu  sync.Mutex
	err error
}

// newChunkRouter prepares a routing pass with weight w (+1 insert, -1
// delete) whose in-line descent partitions with sc.
func (t *Tree) newChunkRouter(w int64, sc *routeScratch) *chunkRouter {
	r := &chunkRouter{w: w, sc: sc}
	if workers := t.cfg.workers(); workers > 1 {
		r.sem = make(chan struct{}, workers-1)
		rows := t.cfg.chunkRows()
		r.scratch.New = func() any { return newRouteScratch(rows) }
	}
	return r
}

func (r *chunkRouter) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// run streams one chunk down the subtree rooted at root and returns after
// every forked descent completes, so the caller may reuse the chunk.
func (r *chunkRouter) run(root *bnode, ch *data.Chunk) error {
	r.err = nil
	err := r.route(root, ch, nil, r.sc, 0)
	r.wg.Wait()
	if err == nil {
		err = r.err
	}
	return err
}

// routed is what a routing pass over a source saw.
type routed struct {
	tuples, chunks, skips int64
}

// routeSource streams every chunk of src through one routing pass with
// weight w, down the subtree rooted at root. The chunks come through the
// pipelined reader for columnar files; its stage report lands in sp (nil
// ok) and the pipeline.* registry counters. The caller credits the zone
// skips to its own counter.
func (t *Tree) routeSource(src data.Source, root *bnode, w int64, sc *routeScratch, sp *obs.Span) (routed, error) {
	var out routed
	csc, err := data.ScanChunksPipelined(src, t.pipelineCfg())
	if err != nil {
		return out, err
	}
	r := t.newChunkRouter(w, sc)
	ch := data.NewChunk(len(t.schema.Attributes), t.cfg.chunkRows())
	for err == nil {
		ch.Reset()
		nerr := csc.NextChunk(ch)
		if nerr == io.EOF {
			break
		}
		if nerr != nil {
			err = nerr
			break
		}
		if ch.Len() == 0 {
			continue
		}
		out.tuples += int64(ch.Len())
		out.chunks++
		err = r.run(root, ch)
	}
	if cerr := csc.Close(); err == nil {
		err = cerr
	}
	attachPipelineSpans(sp, csc)
	t.recordPipelineStats(csc)
	out.skips = r.skips.Load()
	return out, err
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

// route applies the chunk rows named by idx (all rows when idx is nil)
// to the subtree rooted at n. depth indexes sc's per-level scratch
// buffers, not the node's depth in the full tree (forked descents restart
// at 0 with their own scratch).
func (r *chunkRouter) route(n *bnode, ch *data.Chunk, idx []int32, sc *routeScratch, depth int) error {
	w := r.w
	classes := ch.Classes()
	if idx == nil {
		for _, c := range classes {
			n.classCounts[c] += w
		}
	} else {
		for _, i := range idx {
			n.classCounts[classes[i]] += w
		}
	}
	if n.isLeaf() {
		if idx == nil && ch.Len() == 0 {
			return nil
		}
		n.dirty = true
		if w > 0 {
			return n.family.AddChunkRows(ch, idx)
		}
		return n.family.RemoveChunkRows(ch, idx)
	}
	for i, cc := range n.catCounts {
		if cc != nil {
			cc.AddBatchW(ch.Col(i), classes, idx, w)
		}
	}
	for i, h := range n.hist {
		if h != nil {
			h.AddBatchW(ch.Col(i), classes, idx, w)
		}
	}
	if n.moments != nil {
		n.moments.AddChunkW(ch, idx, w)
	}
	c := n.coarse
	// Zone-map pushdown: when the chunk's column summary proves every row
	// routes down one side, descend the whole batch directly and skip the
	// partition kernel. The statistics kernels above already ran (they
	// need every row at this node). Counting is eager, so a skipped
	// numeric batch must still feed the interval counters exactly as the
	// per-row pass would: a left skip implies every value is strictly
	// below c.lo (lowCounts, never eqLow); a right skip implies every
	// value is above c.hi or NaN (highCounts). Neither direction can
	// strand stuck rows, so the bag paths stay untouched.
	if z, ok := ch.Zone(c.attr); ok {
		if dir := zoneRoute(c, z); dir != 0 {
			r.skips.Add(1)
			child := n.left
			counts := n.lowCounts
			if dir > 0 {
				child = n.right
				counts = n.highCounts
			}
			if c.kind == data.Numeric {
				if idx == nil {
					for _, cl := range classes {
						counts[cl] += w
					}
				} else {
					for _, i := range idx {
						counts[classes[i]] += w
					}
				}
			}
			return r.route(child, ch, idx, sc, depth+1)
		}
	}
	col := ch.Col(c.attr)
	left, right, stuck := sc.at(depth)
	if c.kind == data.Categorical {
		// Same predicate as Tree.route and the compiled inference layout:
		// codes outside [0, 64) or outside the subset take the pinned
		// right edge.
		if idx == nil {
			for i, v := range col {
				if code := uint(v); code < 64 && c.subset&(1<<code) != 0 {
					left = append(left, int32(i))
				} else {
					right = append(right, int32(i))
				}
			}
		} else {
			for _, i := range idx {
				if code := uint(col[i]); code < 64 && c.subset&(1<<code) != 0 {
					left = append(left, i)
				} else {
					right = append(right, i)
				}
			}
		}
	} else {
		// The routing counters mirror Tree.route exactly: rows routed left
		// of the interval feed lowCounts (and eqLow at the endpoint), rows
		// routed right feed highCounts, fused into the partition pass. Any
		// delete-stuck continuation rows are appended to the descent sets
		// only after this pass — continuation rows descend without touching
		// the interval counters, exactly as the row path's routedThr branch
		// does.
		if idx == nil {
			for i, v := range col {
				switch {
				case v <= c.lo:
					left = append(left, int32(i))
					n.lowCounts[classes[i]] += w
					if v == c.lo {
						n.eqLow += w
					}
				case v > c.hi || v != v:
					// NaN takes the pinned missing-value edge (right),
					// never the stuck set.
					right = append(right, int32(i))
					n.highCounts[classes[i]] += w
				default:
					stuck = append(stuck, int32(i))
				}
			}
		} else {
			for _, i := range idx {
				v := col[i]
				switch {
				case v <= c.lo:
					left = append(left, i)
					n.lowCounts[classes[i]] += w
					if v == c.lo {
						n.eqLow += w
					}
				case v > c.hi || v != v:
					right = append(right, i)
					n.highCounts[classes[i]] += w
				default:
					stuck = append(stuck, i)
				}
			}
		}
		if len(stuck) > 0 {
			if w > 0 {
				// Inside the confidence interval: the rows stick at n,
				// copied from the chunk into the bag's arena in stream
				// order.
				if err := n.pending.AddChunkRows(ch, stuck); err != nil {
					return err
				}
			} else {
				// Deleting stuck tuples: they were pushed down by routedThr
				// in an earlier processing pass; undo the bag entries, then
				// continue each removal downward along the path its push
				// took.
				if err := n.pushed.RemoveChunkRows(ch, stuck); err != nil {
					return err
				}
				for _, i := range stuck {
					if col[i] <= n.routedThr {
						left = append(left, i)
					} else {
						right = append(right, i)
					}
				}
			}
		}
	}
	// Fork the left descent when a worker token is free and both sides are
	// big enough to amortize the handoff. The forked goroutine owns the
	// whole left subtree for this batch; its index set is copied out of
	// this level's scratch, and it partitions with its own scratch.
	if r.sem != nil && len(left) >= forkMinRows && len(right) >= forkMinRows {
		select {
		case r.sem <- struct{}{}:
			spawn := append([]int32(nil), left...)
			child := n.left
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				defer func() { <-r.sem }()
				csc := r.scratch.Get().(*routeScratch)
				if err := r.route(child, ch, spawn, csc, 0); err != nil {
					r.fail(err)
				}
				r.scratch.Put(csc)
			}()
			if len(right) > 0 {
				return r.route(n.right, ch, right, sc, depth+1)
			}
			return nil
		default:
		}
	}
	if len(left) > 0 {
		if err := r.route(n.left, ch, left, sc, depth+1); err != nil {
			return err
		}
	}
	if len(right) > 0 {
		return r.route(n.right, ch, right, sc, depth+1)
	}
	return nil
}
