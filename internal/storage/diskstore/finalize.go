package diskstore

// The bulk-build write path (storage.BatchBuilder) and Finalize, the one
// writer of the v5 delta-varint base layout.
//
// Bulk ingestion defers all adjacency work: AddVertexBatch writes bare
// vertex records, AddEdgeBatch appends bare edge records with no chain
// links, and Finalize builds everything derived — the (src, type)
// segments, degree records doubling as segment descriptors, untyped
// degree counters, the statistics block — in one sorted pass. The same
// pass doubles as the upgrade step for legacy stores (Compact), because
// it never trusts any derived structure: only the src/dst/type triples
// in edges.db. A live store's base is never rewritten in place: its
// Finalize runs the background fold (compact.go), and every fold builds
// its new generation through this pass on a private build-mode store.

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/storage"
)

// AddVertexBatch creates the batch's vertices with consecutive VIDs
// starting at the returned ID. Labels are set directly in the fresh
// record — one record write per vertex instead of AddVertex's write plus
// one read-modify-write per label.
func (s *Store) AddVertexBatch(batch []storage.BulkVertex) (storage.VID, error) {
	if s.liveMode.Load() {
		if len(batch) == 0 {
			return storage.VID(s.NumVertices()), nil
		}
		muts := make([]storage.Mutation, len(batch))
		for i, bv := range batch {
			muts[i] = storage.Mutation{Op: storage.MutAddVertex, Labels: bv.Labels}
		}
		res, err := s.ApplyMutations(muts)
		if err != nil {
			return 0, err
		}
		return res.Vertices[0], nil
	}
	if err := s.markDirty(); err != nil {
		return 0, err
	}
	ep := s.cur
	first := storage.VID(ep.numVertices)
	for _, bv := range batch {
		v := storage.VID(ep.numVertices)
		ep.numVertices++
		rec := vertexRec{inUse: true}
		for _, l := range bv.Labels {
			id, _, err := s.labelID(l, true)
			if err != nil {
				return 0, err
			}
			w, b := id/64, uint(id%64)
			if rec.labels[w]&(1<<b) == 0 {
				rec.labels[w] |= 1 << b
				ep.byLabel[id] = append(ep.byLabel[id], v)
			}
		}
		if err := ep.writeVertex(v, rec); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// AddEdgeBatch appends bare edge records — src, dst, type, no chain
// links. The edges are invisible to traversals until Finalize links them;
// Flush runs Finalize automatically if the caller has not. The
// pending-finalize state is set before the first record goes out, so even
// a mid-batch failure leaves a store whose next Flush links whatever was
// appended.
func (s *Store) AddEdgeBatch(batch []storage.BulkEdge) error {
	if s.liveMode.Load() {
		muts := make([]storage.Mutation, len(batch))
		for i, be := range batch {
			muts[i] = storage.Mutation{Op: storage.MutAddEdge, Src: be.Src, Dst: be.Dst, Type: be.Type}
		}
		_, err := s.ApplyMutations(muts)
		return err
	}
	if err := s.markDirty(); err != nil {
		return err
	}
	ep := s.cur
	ep.segmented = false
	ep.compressed = false // bare records follow; see AddEdge
	s.needFinalize = true
	for _, be := range batch {
		if err := s.check(be.Src); err != nil {
			return err
		}
		if err := s.check(be.Dst); err != nil {
			return err
		}
		typeID, ok := s.typeIDs[be.Type]
		if !ok {
			typeID = len(s.types)
			s.types = append(s.types, be.Type)
			s.typeIDs[be.Type] = typeID
		}
		e := storage.EID(ep.numEdges)
		ep.numEdges++
		if err := ep.writeEdge(e, edgeRec{
			inUse: true, typeID: uint32(typeID),
			src: int64(be.Src), dst: int64(be.Dst),
		}); err != nil {
			return err
		}
	}
	return nil
}

// edgeLite is the in-memory shape of one edge during Finalize.
type edgeLite struct {
	src, dst int64
	typeID   uint32
}

// Finalize completes deferred bulk construction and (re)establishes the
// v5 layout. On a build-mode store it rewrites edges.db in place as
// delta-varint segments clustered by (source vertex, edge type), dst
// sorted within each, plus the matching in-segments, and rebuilds every
// vertex's degree counters and per-type degree records (the segment
// descriptors) and the statistics block. A typed traversal then decodes
// only its own type's segment.
//
// Because Finalize rebuilds all derived structures from the base
// src/dst/type triples, it also serves as the format upgrade for legacy
// v2-v4 stores (see Compact) and as the repair step after incremental
// AddEdge calls appended uncompressed records. Edge IDs are renumbered
// by the clustering; EIDs observed before Finalize are invalid after it
// (the storage.BatchBuilder contract).
//
// On a live store Finalize is Compact: the background fold writes a new
// generation and commits it by manifest rename, leaving no marker.
func (s *Store) Finalize() error {
	if s.liveMode.Load() {
		return s.Compact()
	}
	// Build mode: exclusive access (no concurrent readers or writers), and
	// edges.db is rewritten in place.
	ep := s.cur
	if err := s.markDirty(); err != nil {
		return err
	}
	// The rebuild writes current-format degree records and the next Flush
	// a matching manifest + index; this is the explicit upgrade path,
	// never taken by plain Open/Flush.
	ep.version = formatVersion
	// The rewrite below mutates base records in place, and cache eviction
	// may push any subset of the new pages to disk at any moment — a
	// crash leaves files in a mixed old/new state that the (unchanged)
	// manifest still validates. The marker file turns that silent
	// corruption into a detected one: it is created before the first
	// mutated page can reach disk and removed only by the next successful
	// Flush, so Open refuses a store whose finalize never committed (see
	// ErrFinalizeInterrupted).
	if err := s.placeFinalizeMarker(); err != nil {
		return err
	}
	// Gather base edges through the layout-aware enumerator (records, or
	// segments on an already-compressed base).
	recs := make([]edgeLite, 0, int(ep.numEdges))
	if err := ep.forEachEdgeLite(func(el edgeLite) error {
		recs = append(recs, el)
		return nil
	}); err != nil {
		return fmt.Errorf("diskstore: finalize: %w", err)
	}
	if int64(len(recs)) != ep.numEdges {
		return fmt.Errorf("diskstore: finalize: gathered %d base edges, expected %d", len(recs), ep.numEdges)
	}
	nE := len(recs)
	// Everything below writes segments; the old bytes in edges.db are
	// dead once the gather above is done.
	ep.compressed = true

	// New edge order, clustered by (src, type) and dst-sorted within a
	// segment (each segment gap-encodes its dst list): the new ID of edge
	// perm[k] is k, so a segment's out-EIDs are contiguous.
	perm := make([]int, nE)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool {
		a, b := &recs[perm[i]], &recs[perm[j]]
		if a.src != b.src {
			return a.src < b.src
		}
		if a.typeID != b.typeID {
			return a.typeID < b.typeID
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return perm[i] < perm[j] // stable: keep ingest order for parallel edges
	})
	newID := make([]int, nE)
	for k, old := range perm {
		newID[old] = k
	}

	// In-segments group each vertex's in-edges by type, in ascending new
	// ID within a segment.
	inOrder := make([]int, nE)
	for i := range inOrder {
		inOrder[i] = i
	}
	sort.Slice(inOrder, func(i, j int) bool {
		a, b := &recs[inOrder[i]], &recs[inOrder[j]]
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		if a.typeID != b.typeID {
			return a.typeID < b.typeID
		}
		return newID[inOrder[i]] < newID[inOrder[j]]
	})

	// Per-vertex: untyped degree counters and the ascending-type degree
	// chain of segment descriptors. degrees.db is rewritten from scratch.
	// The same pass emits the delta-varint segments at a running cursor
	// and accumulates the statistics block: per-edge-type counts and
	// per-(label, key) bloom hashes over every property value.
	ep.numDegs = 0
	oi, ii := 0, 0
	var degs []degRec
	var cursor int64
	var segBuf []byte
	var labelIDs []int
	hashAcc := make(map[uint64][]uint64)
	typeCounts := make([]int64, len(s.types))
	for i := range recs {
		typeCounts[recs[i].typeID]++
	}
	for v := int64(0); v < ep.numVertices; v++ {
		rec, err := ep.readVertex(storage.VID(v))
		if err != nil {
			return err
		}
		outStart := oi
		for oi < nE && recs[perm[oi]].src == v {
			oi++
		}
		inStart := ii
		for ii < nE && recs[inOrder[ii]].dst == v {
			ii++
		}
		rec.outDeg = uint32(oi - outStart)
		rec.inDeg = uint32(ii - inStart)
		// A compressed vertex reaches its edges only through the degree
		// chain's segment descriptors; it has no record-chain heads.
		rec.firstOut, rec.firstIn, rec.firstDeg = 0, 0, 0
		// Merge the two type-grouped runs into one ascending-type chain.
		degs = degs[:0]
		o, i := outStart, inStart
		for o < oi || i < ii {
			var t uint32
			switch {
			case o >= oi:
				t = recs[inOrder[i]].typeID
			case i >= ii:
				t = recs[perm[o]].typeID
			default:
				t = min(recs[perm[o]].typeID, recs[inOrder[i]].typeID)
			}
			dr := degRec{inUse: true, typeID: t}
			if o < oi && recs[perm[o]].typeID == t {
				dr.firstOutEID = int64(o) + 1
				segBuf = segBuf[:0]
				first := o
				var prev int64
				for o < oi && recs[perm[o]].typeID == t {
					d := recs[perm[o]].dst
					segBuf = appendOutSeg(segBuf, d, prev, o == first)
					prev = d
					o++
					dr.outDeg++
				}
				dr.outOff = cursor + 1
				dr.outLen = uint32(len(segBuf))
				if err := ep.pager.write(fileEdges, cursor, segBuf); err != nil {
					return err
				}
				cursor += int64(len(segBuf))
			}
			if i < ii && recs[inOrder[i]].typeID == t {
				segBuf = segBuf[:0]
				first := i
				var prevSrc, prevEid int64
				for i < ii && recs[inOrder[i]].typeID == t {
					src := recs[inOrder[i]].src
					eid := int64(newID[inOrder[i]])
					segBuf = appendInSeg(segBuf, src, prevSrc, eid, prevEid, i == first)
					prevSrc, prevEid = src, eid
					i++
					dr.inDeg++
				}
				dr.inOff = cursor + 1
				dr.inLen = uint32(len(segBuf))
				if err := ep.pager.write(fileEdges, cursor, segBuf); err != nil {
					return err
				}
				cursor += int64(len(segBuf))
			}
			degs = append(degs, dr)
		}
		if len(degs) > 0 {
			base := ep.numDegs
			rec.firstDeg = base + 1
			for j := range degs {
				if j+1 < len(degs) {
					degs[j].next = base + int64(j) + 2
				}
				if err := ep.writeDeg(base+int64(j), degs[j]); err != nil {
					return err
				}
			}
			ep.numDegs += int64(len(degs))
		}
		// Statistics: hash every property value once, bucketed by each
		// label the vertex carries. Filters are sized after the pass,
		// when per-bucket cardinalities are known.
		labelIDs = labelIDs[:0]
		for w, word := range rec.labels {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &^= 1 << b
				labelIDs = append(labelIDs, w*64+b)
			}
		}
		if len(labelIDs) > 0 {
			for p := rec.firstProp; p != 0; {
				pr, err := ep.readProp(p - 1)
				if err != nil {
					return err
				}
				p = pr.next
				val, err := ep.decodeValue(pr)
				if err != nil {
					return err
				}
				h := hashValue(val)
				for _, lid := range labelIDs {
					k := bloomKey(lid, int(pr.keyID))
					hashAcc[k] = append(hashAcc[k], h)
				}
			}
		}
		if err := ep.writeVertex(storage.VID(v), rec); err != nil {
			return err
		}
	}
	// Segments are strictly smaller than the records they replace (<= 27
	// bytes/edge worst case vs 64), so the rewrite never caught up with
	// itself and the tail past the cursor is dead — reclaim it.
	ep.edgeBytes = cursor
	if err := ep.pager.truncate(fileEdges, cursor); err != nil {
		return err
	}
	blooms := make(map[uint64]*bloom, len(hashAcc))
	for k, hs := range hashAcc {
		b := newBloom(len(hs))
		for _, h := range hs {
			b.add(h)
		}
		blooms[k] = b
	}
	ep.typeCounts = typeCounts
	ep.blooms = blooms
	ep.statsValid = true
	ep.segmented = true
	s.needFinalize = false
	// A finalized store with at least one vertex and one edge accepts
	// durable live mutations (see live.go). Empty or vertex-only stores
	// stay in build mode: they are still being constructed and their
	// cheap base mutations need no WAL.
	if ep.numVertices > 0 && ep.numEdges > 0 {
		s.delta = newDelta(ep.numVertices, ep.numEdges)
		s.delta.appliedSeq.Store(s.walFoldedSeq)
		s.liveMode.Store(true)
	}
	return nil
}
