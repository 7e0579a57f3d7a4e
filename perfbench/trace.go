package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cypher"
	"repro/internal/query"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// span is one timed call of the traced run. Spans of one request share
// Req; Parent is the ID of the span that caused it (-1 for the root).
type span struct {
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names: the request root, its HTTP round trip, and the in-process
// replay of the handler's calls into each layer.
const (
	spanRequest = "request"
	spanHTTP    = "server.http"
	spanReplay  = "replay"
	spanParse   = "cypher.parse"
	spanRewrite = "rewrite.rewrite"
	spanPlan    = "query.plan"
	spanExec    = "query.exec"
	spanDirExec = "query.dir_exec"
)

// tracedRequests is about how many requests the traced half samples; it
// bounds the spans held in memory on fast workloads.
const tracedRequests = 10000

// tracer replays every sampled answered read in-process through the same
// public calls the server's handler makes, and records a span around
// each.
type tracer struct {
	f       *fixture
	dirPlan []*query.Prepared // per distinct query, on the DIR store
	every   int               // sample one answered read in every
	origin  time.Time
	nextReq atomic.Int64
	seen    []int    // answered reads per client
	spans   [][]span // per client; merged when the run ends
	hits    []int    // plan-cache hits per client
	errs    atomic.Int64
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// replay is the loop's after hook.
func (t *tracer) replay(c int, e *expected, httpStart, httpEnd time.Time) {
	t.seen[c]++
	if t.seen[c]%t.every != 0 {
		return
	}
	req := t.nextReq.Add(1)
	ctx := context.Background()
	t0 := time.Now()
	parsed, err := cypher.Parse(e.text)
	t1 := time.Now()
	var text string
	if err == nil {
		var rw *cypher.Query
		rw, _, err = rewrite.Rewrite(parsed, t.f.mapping, rewrite.Options{})
		if err == nil {
			text = rw.String() // the plan-cache key, as the handler renders it
		}
	}
	t2 := time.Now()
	var plan *query.Prepared
	var hit bool
	if err == nil {
		plan, hit, err = t.f.srv.Cache().GetWithInfo(t.f.graph, text)
	}
	t3 := time.Now()
	if err == nil {
		var st query.Stats
		_, err = plan.ExecuteParallelContextWithStats(ctx, 1, &st)
	}
	t4 := time.Now()
	var dst query.Stats
	if _, derr := t.dirPlan[e.index].ExecuteParallelContextWithStats(ctx, 1, &dst); derr != nil && err == nil {
		err = derr
	}
	t5 := time.Now()
	if err != nil {
		t.errs.Add(1)
		return
	}
	if hit {
		t.hits[c]++
	}
	t.spans[c] = append(t.spans[c],
		span{req, 0, -1, spanRequest, t.ns(httpStart), t.ns(t5)},
		span{req, 1, 0, spanHTTP, t.ns(httpStart), t.ns(httpEnd)},
		span{req, 2, 0, spanReplay, t.ns(t0), t.ns(t4)},
		span{req, 3, 2, spanParse, t.ns(t0), t.ns(t1)},
		span{req, 4, 2, spanRewrite, t.ns(t1), t.ns(t2)},
		span{req, 5, 2, spanPlan, t.ns(t2), t.ns(t3)},
		span{req, 6, 2, spanExec, t.ns(t3), t.ns(t4)},
		span{req, 7, 0, spanDirExec, t.ns(t4), t.ns(t5)},
	)
}

// selfTimes returns, per span name, every span's self time: its duration
// minus the part of it its children cover.
func selfTimes(spans []span) map[string][]time.Duration {
	type key struct {
		req int64
		id  int
	}
	children := map[key][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			k := key{s.Req, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur()-covered(children[key{s.Req, s.ID}]))
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for _, s := range spans {
		start := max(s.Start, end)
		if s.End > start {
			total += s.End - start
			end = s.End
		}
	}
	return time.Duration(total)
}

// serverSelf is, per request, the HTTP round trip minus the in-process
// replay of the same request: what the server adds around the layers.
func serverSelf(spans []span) []time.Duration {
	httpDur := map[int64]time.Duration{}
	replayDur := map[int64]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case spanHTTP:
			httpDur[s.Req] = s.dur()
		case spanReplay:
			replayDur[s.Req] = s.dur()
		}
	}
	out := make([]time.Duration, 0, len(httpDur))
	for req, d := range httpDur {
		out = append(out, d-replayDur[req])
	}
	return out
}

// medianUS is the median of ds in microseconds.
func medianUS(ds []time.Duration) float64 {
	return float64(medianDur(ds)) / float64(time.Microsecond)
}

// writeSpans writes the spans as JSON lines when the run ends.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(out)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			out.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// mixCounts are executor and pager counts over one serial pass of the
// mix's draws.
type mixCounts struct {
	draws                        int
	optEdges, dirEdges           int64
	vertices, props, rows        int64
	allocs                       uint64
	pageHits, pageMiss, pageRead int64
}

// serialMixPass executes every draw of the mix once on the OPT plan and
// once on the DIR plan, with no other traffic, and counts the work.
func serialMixPass(t *tracer, exps []*expected, draws []int) (mixCounts, error) {
	mc := mixCounts{draws: len(draws)}
	ctx := context.Background()
	plans := make([]*query.Prepared, len(exps))
	for i, e := range exps {
		parsed, err := cypher.Parse(e.text)
		if err != nil {
			return mc, err
		}
		rw, _, err := rewrite.Rewrite(parsed, t.f.mapping, rewrite.Options{})
		if err != nil {
			return mc, err
		}
		if plans[i], err = t.f.srv.Cache().Get(t.f.graph, rw.String()); err != nil {
			return mc, err
		}
	}
	var before, after storage.Stats
	sr, pager := t.f.graph.(storage.StatsReporter)
	if pager {
		before = sr.Stats()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var opt query.Stats
	for _, d := range draws {
		if _, err := plans[d].ExecuteParallelContextWithStats(ctx, 1, &opt); err != nil {
			return mc, err
		}
	}
	runtime.ReadMemStats(&ms1)
	if pager {
		after = sr.Stats()
		mc.pageHits = after.PageHits - before.PageHits
		mc.pageMiss = after.PageMisses - before.PageMisses
		mc.pageRead = after.PageReads - before.PageReads
	}
	var dir query.Stats
	for _, d := range draws {
		if _, err := t.dirPlan[d].ExecuteParallelContextWithStats(ctx, 1, &dir); err != nil {
			return mc, err
		}
	}
	mc.allocs = ms1.Mallocs - ms0.Mallocs
	mc.optEdges, mc.dirEdges = opt.EdgesTraversed, dir.EdgesTraversed
	mc.vertices, mc.props, mc.rows = opt.VerticesScanned, opt.PropsRead, opt.RowsEmitted
	return mc, nil
}

// storageSweeps times ForEachOutID over every vertex (ns per edge) and
// PropID of one present key per vertex (ns per lookup) on the store.
func storageSweeps(g storage.Graph) (edgeNS, propNS float64) {
	fg := storage.Fast(g)
	var vids []storage.VID
	fg.ForEachVertexID(storage.AnySymbol, func(v storage.VID) bool {
		vids = append(vids, v)
		return true
	})
	keys := make([]storage.SymbolID, len(vids))
	for i, v := range vids {
		keys[i] = storage.NoSymbol
		if ks := fg.PropKeys(v); len(ks) > 0 {
			keys[i] = fg.KeyID(ks[0])
		}
	}
	const passes = 3
	edgeRuns, propRuns := make([]float64, passes), make([]float64, passes)
	for p := 0; p < passes; p++ {
		edges := 0
		start := time.Now()
		for _, v := range vids {
			fg.ForEachOutID(v, storage.AnySymbol, func(storage.EID, storage.VID) bool {
				edges++
				return true
			})
		}
		edgeRuns[p] = float64(time.Since(start).Nanoseconds()) / float64(max(edges, 1))
		start = time.Now()
		for i, v := range vids {
			fg.PropID(v, keys[i])
		}
		propRuns[p] = float64(time.Since(start).Nanoseconds()) / float64(max(len(vids), 1))
	}
	sort.Float64s(edgeRuns)
	sort.Float64s(propRuns)
	return edgeRuns[passes/2], propRuns[passes/2]
}

// waitForFolds waits until no background compaction is running, so the
// serial pass and the sweeps measure the store, not a fold beside them.
func waitForFolds(g storage.Graph) {
	lr, ok := g.(storage.LiveStatsReporter)
	if !ok {
		return
	}
	for deadline := time.Now().Add(60 * time.Second); lr.LiveStats().FoldRunning && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
}

// tracedRun measures half the run untraced and half traced, then counts
// work in a serial pass of every draw of the mix and sweeps the store,
// and reports the per-layer metrics.
func tracedRun(cfg config, w io.Writer, f *fixture, l *loop, mix []int, setups []setupTimes) (*report, error) {
	exps := l.exps
	dirSt, dirDisk, dirDir, err := loadStore(f.spec, f.data, nil, cfg.dataDir, "dir")
	if err != nil {
		return nil, err
	}
	defer closeStore(dirDisk, dirDir)
	t := &tracer{f: f, seen: make([]int, clients), spans: make([][]span, clients), hits: make([]int, clients)}
	for _, e := range exps {
		parsed, err := cypher.Parse(e.text)
		if err != nil {
			return nil, err
		}
		p, err := query.Prepare(dirSt, parsed)
		if err != nil {
			return nil, err
		}
		t.dirPlan = append(t.dirPlan, p)
	}

	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	l.run(half/10, 0)
	plain := l.run(half, 1)
	// Sample so the traced half replays about tracedRequests reads, at
	// the untraced half's rate.
	t.every = max(1, len(plain.readLat)/tracedRequests)

	lr, live := f.graph.(storage.LiveStatsReporter)
	var ls0, ls1 storage.LiveStats
	if live {
		ls0 = lr.LiveStats()
	}
	shed0 := f.srv.Stats().Admission.Shed
	t.origin = time.Now()
	l.after = t.replay
	traced := l.run(half, 2)
	l.after = nil
	shed := f.srv.Stats().Admission.Shed - shed0
	if live {
		ls1 = lr.LiveStats()
	}
	if n := t.errs.Load(); n > 0 {
		return nil, fmt.Errorf("%d in-process replays failed", n)
	}

	waitForFolds(f.graph)
	mc, err := serialMixPass(t, exps, mix)
	if err != nil {
		return nil, err
	}
	edgeNS, propNS := storageSweeps(f.graph)

	var spans []span
	hits := 0
	for c := range t.spans {
		spans = append(spans, t.spans[c]...)
		hits += t.hits[c]
	}
	if err := writeSpans(filepath.Join(cfg.traceDir, f.spec.name+".jsonl"), spans); err != nil {
		return nil, err
	}
	self := selfTimes(spans)
	replays := len(self[spanReplay])
	fmt.Fprintf(w, "traced run: 1 in %d answered reads replayed (%d), %d spans written to %s\n",
		t.every, replays, len(spans), filepath.Join(cfg.traceDir, f.spec.name+".jsonl"))
	for _, name := range []string{spanRequest, spanHTTP, spanReplay, spanParse, spanRewrite, spanPlan, spanExec, spanDirExec} {
		fmt.Fprintf(w, "  self %-16s median %10.2f us  n=%d\n", name, medianUS(self[name]), len(self[name]))
	}

	per := func(n int64) float64 { return float64(n) / float64(max(mc.draws, 1)) }
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	plainP50 := percentileMs(plain.readLat, 0.5)
	tracedP50 := percentileMs(traced.readLat, 0.5)
	overhead := 0.0
	if plainP50 > 0 {
		overhead = tracedP50/plainP50 - 1
	}
	pass := fmt.Sprintf("serial pass of %d draws", mc.draws)
	n := fmt.Sprintf("n=%d", replays)
	dSyncs, dAppends := ls1.WALSyncs-ls0.WALSyncs, ls1.WALAppends-ls0.WALAppends
	ms := func(part func(setupTimes) time.Duration) float64 {
		return float64(median(setups, part)) / float64(time.Millisecond)
	}

	rep := &report{correct: plain.changed+traced.changed == 0,
		attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed}
	rep.metrics = []metric{
		{"cypher.parse_us", medianUS(self[spanParse]), "us", n},
		{"rewrite.rewrite_us", medianUS(self[spanRewrite]), "us", n},
		{"query.plan_us", medianUS(self[spanPlan]), "us", n},
		{"query.plan_hit_frac", frac(int64(hits), int64(replays)), "ratio", n},
		{"query.exec_us", medianUS(self[spanExec]), "us", n},
		{"query.dir_exec_us", medianUS(self[spanDirExec]), "us", n},
		{"query.allocs_per_query", float64(mc.allocs) / float64(max(mc.draws, 1)), "count", pass},
		{"query.vertices_per_query", per(mc.vertices), "count", pass},
		{"query.props_per_query", per(mc.props), "count", pass},
		{"query.rows_per_query", per(mc.rows), "count", pass},
		{"optimizer.dir_edges_per_query", per(mc.dirEdges), "count", pass},
		{"optimizer.opt_edges_per_query", per(mc.optEdges), "count", pass},
		{"server.http_us", medianUS(self[spanHTTP]), "us", n},
		{"server.self_us", medianUS(serverSelf(spans)), "us", n},
		{"server.resp_bytes_per_query", float64(traced.respBytes) / float64(max(len(traced.readLat), 1)), "bytes", fmt.Sprintf("n=%d", len(traced.readLat))},
		{"server.shed", float64(shed), "count", "429s in the traced run"},
		{"storage.out_edge_ns", edgeNS, "ns", "ForEachOutID sweep, per edge"},
		{"storage.prop_ns", propNS, "ns", "PropID sweep, per lookup"},
		{"storage.page_hits_per_query", per(mc.pageHits), "count", pass},
		{"storage.page_misses_per_query", per(mc.pageMiss), "count", pass},
		{"storage.page_reads_per_query", per(mc.pageRead), "count", pass},
		{"storage.page_miss_frac", frac(mc.pageMiss, mc.pageHits+mc.pageMiss), "ratio", pass},
		{"storage.wal_sync_us", frac(ls1.WALSyncNanos-ls0.WALSyncNanos, dSyncs) / 1000, "us", fmt.Sprintf("%d fsyncs", dSyncs)},
		{"storage.writes_per_sync", frac(dAppends, dSyncs), "ratio", fmt.Sprintf("%d writes", dAppends)},
		{"storage.wal_bytes_per_write", frac(ls1.WALBytes-ls0.WALBytes, dAppends), "bytes", fmt.Sprintf("%d writes", dAppends)},
		{"storage.folds", float64(ls1.Compactions - ls0.Compactions), "count", "folds committed in the traced run"},
		{"storage.delta_items_end", float64(ls1.DeltaVertices + ls1.DeltaEdges), "count", "after the traced run"},
		{"datagen.gen_ms", ms(func(s setupTimes) time.Duration { return s.gen }), "ms", "median of set-ups"},
		{"optimizer.pgsg_ms", ms(func(s setupTimes) time.Duration { return s.pgsg }), "ms", "median of set-ups"},
		{"loader.load_ms", ms(func(s setupTimes) time.Duration { return s.load }), "ms", "median of set-ups"},
		{"trace.overhead_frac", overhead, "ratio", fmt.Sprintf("traced read p50 %.4g ms vs untraced %.4g ms", tracedP50, plainP50)},
	}
	printMetrics(w, rep)
	return rep, nil
}
