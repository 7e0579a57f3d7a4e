package query

// Morsel-driven intra-query parallelism. A parallel execution partitions
// the plan's root label scan into morsels (storage.PlanVertexScan), runs
// the plan's ordinary compiled step chain over each morsel on a small
// worker pool — each worker owns a pooled machine and a private Stats —
// and merges per-worker results at a sink on the calling goroutine:
//
//   - grouped plans accumulate per-worker partial groups, merged with
//     aggState.merge (counts and sums add, min/max compare, DISTINCT
//     aggregates replay recorded values), then run the ordinary finish;
//   - ORDER BY + LIMIT plans keep a bounded top-k heap per worker and
//     merge the k·workers survivors with one final sort;
//   - all other plans stream rows through a bounded channel in small
//     batches, deduplicating DISTINCT rows through a sharded key set, so
//     a huge result set never materializes outside the consumer.
//
// Workers share one derived context: the first error (or the caller's
// cancellation) cancels it, and every sibling unwinds within cancelMask+1
// iterations via the machines' ordinary cancellation polling.

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/storage"
)

// Tunables of the morsel executor.
const (
	// MinParallelRootCount is the runtime parallelism threshold: root
	// scans over fewer vertices than this execute serially, because the
	// fan-out costs more than it buys on small labels. The count comes
	// from the store's label index (persisted in index.db on diskstore
	// v4), so the decision is one map lookup.
	MinParallelRootCount = 16

	// morselsPerWorker oversplits the root scan so workers that finish
	// early steal remaining morsels instead of idling behind a skewed
	// partition.
	morselsPerWorker = 4

	// rowBatchSize and rowChanDepth bound the streaming pipeline: at most
	// rowChanDepth batches of rowBatchSize rows sit in the channel, plus
	// one batch under construction per worker — the pipeline's whole
	// buffered footprint, independent of result-set size.
	rowBatchSize = 64
	rowChanDepth = 4

	// dedupShards stripes the shared DISTINCT key set so workers contend
	// on a shard's lock, not one global mutex.
	dedupShards = 16
)

// Parallelizable reports the planner's compile-time decision: whether
// this plan's shape is eligible for morsel-driven execution at all.
// Execution still falls back to serial when the worker count is <= 1 or
// the root label has fewer than MinParallelRootCount vertices.
func (p *Prepared) Parallelizable() bool { return p.parallelOK }

// Columns returns the plan's output column names.
func (p *Prepared) Columns() []string { return p.cols }

// ExecuteParallelContextWithStats runs the plan over up to workers morsel
// workers and materializes the result. Any workers value <= 1, an
// ineligible plan shape, or a root label below the parallelism threshold
// runs serially, so callers can pass their knob unconditionally. Context
// cancellation stops every worker within a bounded number of iterations,
// and work counters accumulate into st: per-worker Stats are merged once
// at the end, so parallel execution reports the same totals serial
// execution would. Safe for concurrent callers of the same plan, but
// each call needs its own st.
func (p *Prepared) ExecuteParallelContextWithStats(ctx context.Context, workers int, st *Stats) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, unpin := p.pinView()
	defer unpin()
	scans := p.planMorsels(g, workers)
	if scans == nil {
		return p.runSerial(ctx, p.pool.Get().(*machine), g, st)
	}
	var rows [][]graph.Value
	err := p.runParallel(ctx, g, scans, min(workers, len(scans)), st, func(batch [][]graph.Value) error {
		rows = append(rows, batch...)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		rows = [][]graph.Value{}
	}
	return &Result{Columns: p.cols, Rows: rows}, nil
}

// StreamParallelContextWithStats executes the plan and hands result rows
// to fn on the calling goroutine instead of materializing a Result.
// Plain projections (with or without DISTINCT) stream as workers produce
// them with a bounded buffer — rowChanDepth batches of rowBatchSize rows
// plus one batch per worker — so arbitrarily large result sets execute in
// bounded memory. Shapes whose semantics need the full set first
// (grouping, ORDER BY, top-k LIMIT) deliver their rows when the merge
// completes. An error from fn cancels the remaining workers and is
// returned. Row order matches ExecuteParallelContextWithStats only where
// ORDER BY forces one.
func (p *Prepared) StreamParallelContextWithStats(ctx context.Context, workers int, st *Stats, fn func(row []graph.Value) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	deliver := func(batch [][]graph.Value) error {
		for _, row := range batch {
			if err := fn(row); err != nil {
				return err
			}
		}
		return nil
	}
	g, unpin := p.pinView()
	defer unpin()
	if scans := p.planMorsels(g, workers); scans != nil {
		return p.runParallel(ctx, g, scans, min(workers, len(scans)), st, deliver, nil)
	}
	// Serial fallback. Plain projections stream row by row through the
	// machine's emit hook; shapes that buffer anyway (grouping, DISTINCT,
	// ORDER BY, LIMIT) materialize and replay.
	if p.grouped || p.distinct || len(p.orderCols) > 0 || p.limit >= 0 {
		res, err := p.runSerial(ctx, p.pool.Get().(*machine), g, st)
		if err != nil {
			return err
		}
		return deliver(res.Rows)
	}
	m := p.pool.Get().(*machine)
	m.reset(ctx, p, g, st)
	emitted := int64(0)
	m.emit = func(row []graph.Value) error {
		emitted++
		return fn(row)
	}
	err := m.root()
	st.RowsEmitted += emitted
	p.release(m)
	return err
}

// pinView pins the graph state an execution reads, serial or parallel. A
// backend that both accepts concurrent mutations and supports snapshots
// gets a pinned point-in-time view, so neither a write nor a background
// Compact swapping base generations mid-query can shift the view; every
// other backend reads live with a no-op unpin. Callers must invoke the
// returned unpin when the execution is done.
func (p *Prepared) pinView() (storage.Graph, func()) {
	if _, mutable := p.g.(storage.MutableGraph); mutable {
		if sn, ok := p.g.(storage.Snapshotter); ok {
			s := sn.AcquireSnapshot()
			return s, s.Release
		}
	}
	return p.g, func() {}
}

// planMorsels makes the runtime half of the parallelism decision and, when
// parallel execution pays off, partitions the root scan over g (the
// pinned view from pinView). A nil return means: run serially.
func (p *Prepared) planMorsels(g storage.Graph, workers int) []storage.VertexScan {
	if workers <= 1 || !p.parallelOK {
		return nil
	}
	if p.probe != nil && p.probe.provablyEmpty() {
		// The statistics guard proves the root scan empty: fall back to
		// the serial path, whose root step performs (and counts) the
		// actual skip — no point partitioning a scan that won't run.
		return nil
	}
	if g.CountLabelID(p.rootLabel) < MinParallelRootCount {
		return nil
	}
	scans := g.PlanVertexScan(p.rootLabel, workers*morselsPerWorker)
	if len(scans) < 2 {
		return nil
	}
	return scans
}

// runParallel is the morsel driver: it fans scans out over workers worker
// goroutines, merges their results per the plan's shape, and hands
// finished row batches to deliver on the calling goroutine. st receives
// the exact merged work counters. profSteps, when non-nil, must have one
// slot per worker; each worker parks its raw PROFILE counters there
// before its machine is released, and the profiled caller folds them.
func (p *Prepared) runParallel(ctx context.Context, g storage.Graph, scans []storage.VertexScan, workers int, st *Stats, deliver func([][]graph.Value) error, profSteps [][]stepCounts) error {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// First error wins and cancels every sibling; later failures (usually
	// the induced context.Canceled) are dropped.
	var failOnce sync.Once
	var failErr error
	fail := func(err error) {
		failOnce.Do(func() {
			failErr = err
			cancel()
		})
	}

	hasDistinctAgg := false
	for i := range p.aggs {
		if p.aggs[i].distinct {
			hasDistinctAgg = true
		}
	}

	// Shape-dependent sinks. Exactly one of these is active:
	// worker machines retained for the group merge, per-worker top-k
	// survivors, or the bounded streaming channel.
	topk := !p.grouped && p.limit >= 0 && len(p.orderCols) > 0
	var (
		machines []*machine
		dedup    *shardedSet
		rowCh    chan [][]graph.Value
		heapMu   sync.Mutex
		pending  [][]graph.Value
	)
	switch {
	case p.grouped:
		machines = make([]*machine, workers)
	case topk:
		if p.distinct {
			dedup = newShardedSet()
		}
	default:
		if p.distinct {
			dedup = newShardedSet()
		}
		rowCh = make(chan [][]graph.Value, rowChanDepth)
	}

	// Workers pull morsel indices from a shared counter (work stealing):
	// a worker stuck on a heavy morsel simply claims fewer of them.
	var next atomic.Int64
	workerStats := make([]Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var m *machine
			if profSteps != nil {
				// Profiled machines carry an instrumented step chain and
				// bypass the pool entirely (release won't pool them back).
				m = p.newProfiledMachine()
			} else {
				m = p.pool.Get().(*machine)
			}
			m.reset(wctx, p, g, &workerStats[w])
			m.trackDistinct = p.grouped && hasDistinctAgg

			var batch [][]graph.Value
			var tk *topKHeap
			switch {
			case p.grouped:
				// Rows accumulate into m.groups; nothing streams.
			case topk:
				tk = &topKHeap{p: p}
				m.emit = func(row []graph.Value) error {
					if dedup != nil {
						m.key = appendRowKey(m.key[:0], row)
						if !dedup.insert(m.key) {
							return nil
						}
					}
					tk.add(row)
					return nil
				}
			default:
				m.emit = func(row []graph.Value) error {
					if dedup != nil {
						m.key = appendRowKey(m.key[:0], row)
						if !dedup.insert(m.key) {
							return nil
						}
					}
					batch = append(batch, row)
					if len(batch) < rowBatchSize {
						return nil
					}
					out := batch
					batch = make([][]graph.Value, 0, rowBatchSize)
					return sendBatch(wctx, rowCh, out)
				}
			}

			for m.err == nil {
				idx := int(next.Add(1)) - 1
				if idx >= len(scans) {
					break
				}
				scans[idx](m.rootScan)
			}
			err := m.err
			if err == nil && len(batch) > 0 {
				err = sendBatch(wctx, rowCh, batch)
			}
			if err != nil {
				fail(err)
			}
			if profSteps != nil {
				// Park the counters before release clears the machine's
				// reference; the slice itself survives for the caller's fold.
				profSteps[w] = m.psteps
			}
			switch {
			case p.grouped:
				// Retained: the sink merge below still reads m.groups (and
				// adopts its groupRow pointers), so the machine is released
				// only after the merge.
				machines[w] = m
			case topk:
				heapMu.Lock()
				pending = append(pending, tk.rows...)
				heapMu.Unlock()
				p.release(m)
			default:
				p.release(m)
			}
		}(w)
	}

	// Sink side. For the streaming shape, consume until every worker is
	// done; a deliver error cancels the workers but keeps draining so no
	// worker stays blocked on a full channel.
	var deliverErr error
	delivered := int64(0)
	gather := len(p.orderCols) > 0 && !topk && !p.grouped
	var gathered [][]graph.Value
	if rowCh != nil {
		go func() {
			wg.Wait()
			close(rowCh)
		}()
		for batch := range rowCh {
			if deliverErr != nil {
				continue
			}
			if gather {
				// ORDER BY without LIMIT: rows must be sorted before the
				// consumer sees them, so gather and deliver after the sort.
				gathered = append(gathered, batch...)
				continue
			}
			if err := deliver(batch); err != nil {
				deliverErr = err
				fail(err)
				continue
			}
			delivered += int64(len(batch))
		}
	} else {
		wg.Wait()
	}
	// All workers have finished: merging their Stats (and reading failErr)
	// is race-free from here on.
	for i := range workerStats {
		st.Add(workerStats[i])
	}
	if failErr != nil {
		return failErr
	}

	switch {
	case p.grouped:
		sink := p.pool.Get().(*machine)
		sink.reset(context.Background(), p, g, st)
		var mergeErr error
		for _, wm := range machines {
			if mergeErr == nil {
				mergeErr = p.mergeGroups(sink, wm)
			}
			p.release(wm)
		}
		if mergeErr != nil {
			p.release(sink)
			return mergeErr
		}
		res, err := p.finish(sink)
		p.release(sink)
		if err != nil {
			return err
		}
		return deliver(res.Rows)
	case topk:
		p.sortRows(pending)
		if len(pending) > p.limit {
			pending = pending[:p.limit]
		}
		st.RowsEmitted += int64(len(pending))
		return deliver(pending)
	case gather:
		p.sortRows(gathered)
		st.RowsEmitted += int64(len(gathered))
		return deliver(gathered)
	default:
		st.RowsEmitted += delivered
		return nil
	}
}

// mergeGroups folds src's partial groups into the sink machine dst:
// groups whose key dst has not seen are adopted wholesale (pointer move,
// no copying), colliding groups merge aggregate state pairwise. Workers
// are merged in index order, so grouped output order is deterministic for
// a fixed partitioning even though it differs from serial order — finish
// re-sorts when the query ordered its output.
func (p *Prepared) mergeGroups(dst, src *machine) error {
	for _, key := range src.order {
		sg := src.groups[key]
		dg, ok := dst.groups[key]
		if !ok {
			dst.groups[key] = sg
			dst.order = append(dst.order, key)
			continue
		}
		for i := range dg.aggs {
			if err := dg.aggs[i].merge(&p.aggs[i], &sg.aggs[i], &dst.scratch); err != nil {
				return err
			}
		}
	}
	return nil
}

// sendBatch hands one row batch to the sink, giving up when the shared
// context is canceled so a worker never blocks on a full channel after
// the sink has stopped consuming.
func sendBatch(ctx context.Context, ch chan<- [][]graph.Value, batch [][]graph.Value) error {
	select {
	case ch <- batch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// shardedSet is the parallel DISTINCT filter: one key set striped over
// dedupShards locks, shared by every worker, so the first producer of a
// row wins regardless of which partition it came from.
type shardedSet struct {
	shards [dedupShards]struct {
		mu sync.Mutex
		m  map[string]struct{}
	}
}

func newShardedSet() *shardedSet {
	s := &shardedSet{}
	for i := range s.shards {
		s.shards[i].m = make(map[string]struct{})
	}
	return s
}

// insert reports whether key was absent, inserting it if so.
func (s *shardedSet) insert(key []byte) bool {
	// FNV-1a: the shard index only needs dispersal, not cryptography.
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	sh := &s.shards[h%dedupShards]
	sh.mu.Lock()
	_, dup := sh.m[string(key)]
	if !dup {
		sh.m[string(key)] = struct{}{}
	}
	sh.mu.Unlock()
	return !dup
}

// topKHeap keeps the plan's LIMIT best rows under rowLess as a max-heap
// rooted at the worst kept row, so each worker retains at most LIMIT rows
// no matter how many its morsels produce. A row that ties the current
// worst is not admitted — with ties, any valid top-k is acceptable.
type topKHeap struct {
	p    *Prepared
	rows [][]graph.Value
}

// worse reports whether rows[i] sorts strictly after rows[j].
func (h *topKHeap) worse(i, j int) bool { return h.p.rowLess(h.rows[j], h.rows[i]) }

func (h *topKHeap) add(row []graph.Value) {
	limit := h.p.limit
	if limit == 0 {
		return
	}
	if len(h.rows) < limit {
		h.rows = append(h.rows, row)
		h.up(len(h.rows) - 1)
		return
	}
	if h.p.rowLess(row, h.rows[0]) {
		h.rows[0] = row
		h.down(0)
	}
}

func (h *topKHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(i, parent) {
			return
		}
		h.rows[i], h.rows[parent] = h.rows[parent], h.rows[i]
		i = parent
	}
}

func (h *topKHeap) down(i int) {
	n := len(h.rows)
	for {
		worst := i
		if l := 2*i + 1; l < n && h.worse(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < n && h.worse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		h.rows[i], h.rows[worst] = h.rows[worst], h.rows[i]
		i = worst
	}
}
