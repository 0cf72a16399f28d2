package core

import (
	"sync"
	"sync/atomic"

	"github.com/boatml/boat/internal/data"
)

// The streaming-update router is the incremental-maintenance twin of the
// cleanup scan's chunk router (scan.go): Insert and Delete stream their
// chunk down the tree level-synchronously over columnar batches instead of
// one root-to-stick descent per tuple. Each node applies the signed batch
// kernels (CatAVC.AddBatchW, Histogram.AddBatchW, Moments.AddChunkW with
// weight +1 for inserts, -1 for deletes), partitions the batch three ways
// by its coarse criterion, and recurses with the partition's index sets.
//
// Unlike the build-time router, which defers internal-node class counting
// to deriveRoutingCounts (valid only once, after a full scan against a
// fresh skeleton), the update router counts eagerly: updates are deltas on
// top of live statistics, so every counter a tuple's root-to-stick path
// touches in Tree.route is applied here, weighted, from the batch. The two
// paths are exactly equivalent — all statistics are signed integer counts,
// and the buffers receive their rows per node in stream order either way —
// which TestUpdateChunkedMatchesRow pins down.
//
// Concurrency: disjoint subtrees share no mutable state (each node's
// counters, statistics, and buffers are touched only while routing through
// that node), so once a batch is partitioned the two children can be
// updated concurrently. updateRun forks the larger descents onto worker
// goroutines up to Config.Parallelism, each with its own partition
// scratch; the shared substrate (the memory budget, iostats, the metrics
// registry) is internally synchronized. The resulting tree is identical
// at every Parallelism setting: every per-node mutation is performed by
// the single worker that owns that subtree for the batch, in the same
// order as the sequential descent. A barrier at the end of each batch
// (wait in run) keeps cross-batch ordering intact.

// forkMinRows is the smallest index set worth a goroutine handoff: below
// this, partition fan-out and scratch handling cost more than they save.
const forkMinRows = 1024

// updateRun carries one batch's descent: the signed weight, the worker
// token bucket (nil when sequential), the scratch pool for forked
// descents, and first-error collection.
type updateRun struct {
	w       int64
	sem     chan struct{}
	scratch sync.Pool
	wg      sync.WaitGroup

	// skips counts the nodes at which a whole batch was routed by zone
	// map alone (atomic: forked descents skip concurrently).
	skips atomic.Int64

	mu  sync.Mutex
	err error
}

func (r *updateRun) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// runUpdateChunk streams one columnar batch down the tree with weight w
// (+1 insert, -1 delete), forking subtree descents across up to
// Config.Parallelism workers, and returns after every descent completes.
func (t *Tree) runUpdateChunk(ch *data.Chunk, sc *routeScratch, w int64) error {
	r := &updateRun{w: w}
	if workers := t.cfg.workers(); workers > 1 {
		r.sem = make(chan struct{}, workers-1)
	}
	rows := t.cfg.chunkRows()
	r.scratch.New = func() any { return newRouteScratch(rows) }
	err := r.update(t.root, ch, nil, sc, 0)
	r.wg.Wait()
	t.met.updBlocksSkipped.Add(r.skips.Load())
	if err == nil {
		r.mu.Lock()
		err = r.err
		r.mu.Unlock()
	}
	return err
}

// update applies the chunk rows named by idx (all rows when idx is nil)
// to the subtree rooted at n. depth indexes sc's per-level scratch
// buffers, not the node's depth in the full tree (forked descents restart
// at 0 with their own scratch).
func (r *updateRun) update(n *bnode, ch *data.Chunk, idx []int32, sc *routeScratch, depth int) error {
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
	// Zone-map pushdown, mirroring the cleanup-scan router — with one
	// extra obligation: the update router counts eagerly, so a skipped
	// numeric batch must still feed the interval counters exactly as
	// the per-row pass would. A left skip implies every value is
	// strictly below c.lo (lowCounts, never eqLow); a right skip
	// implies every value is above c.hi or NaN (highCounts). Neither
	// direction can strand stuck rows, so the bag paths stay untouched.
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
			return r.update(child, ch, idx, sc, depth+1)
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
				if err := r.update(child, ch, spawn, csc, 0); err != nil {
					r.fail(err)
				}
				r.scratch.Put(csc)
			}()
			if len(right) > 0 {
				return r.update(n.right, ch, right, sc, depth+1)
			}
			return nil
		default:
		}
	}
	if len(left) > 0 {
		if err := r.update(n.left, ch, left, sc, depth+1); err != nil {
			return err
		}
	}
	if len(right) > 0 {
		return r.update(n.right, ch, right, sc, depth+1)
	}
	return nil
}
