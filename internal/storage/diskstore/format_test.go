package diskstore

// Format tests: persisted index opens, type-segmented adjacency, bulk
// finalize, legacy v2/v3/v4 compatibility through the committed golden
// fixtures, and crash-safe (atomic) flushes.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

// openEmptyLegacy opens a directory holding the manifest a v2, v3 or v4
// release wrote for an empty store. Building into it goes through that
// version's build-mode record writers (no per-type degree records on v2,
// 32-byte ones on v3, 64-byte ones on v4) until Finalize upgrades it to
// v5.
func openEmptyLegacy(t *testing.T, dir string, version int) *Store {
	t.Helper()
	data, err := json.Marshal(manifest{Version: version, Segmented: version >= 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := s.Format().Version; got != version {
		t.Fatalf("empty v%d store opened as v%d", version, got)
	}
	return s
}

// TestConformanceLegacyLayouts runs the full conformance suite against
// empty v2, v3 and v4 stores: the build-mode paths of each legacy
// layout (record chains, the version's degree records, the reopen scan)
// and the Finalize that upgrades them to v5 must serve every read
// correctly.
func TestConformanceLegacyLayouts(t *testing.T) {
	for _, version := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			storetest.Run(t, func(t *testing.T) storage.Builder {
				s := openEmptyLegacy(t, t.TempDir(), version)
				t.Cleanup(func() {
					if err := s.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
				})
				return s
			})
		})
	}
}

// TestOpenUsesPersistedIndex is the acceptance gate for the persisted
// index: a cold open of a v4 store must read O(index) pages — here zero,
// since index.db bypasses the pager — while deleting index.db forces the
// legacy full-vertex scan, whose pager reads grow with the vertex count.
func TestOpenUsesPersistedIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	const nVertices = 2000
	for i := 0; i < nVertices; i++ {
		if _, err := s.AddVertex("L" + string(rune('A'+i%7))); err != nil {
			t.Fatal(err)
		}
	}
	want := s.CountLabelID(s.LabelID("LA"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !re.Format().IndexLoaded {
		t.Error("v4 open did not use index.db")
	}
	if got := re.Stats().PageReads; got != 0 {
		t.Errorf("indexed open read %d pages; want 0 (no vertex scan)", got)
	}
	if got := re.CountLabelID(re.LabelID("LA")); got != want {
		t.Errorf("CountLabel(LA) from persisted index = %d, want %d", got, want)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Without the index file the store must still open — via the scan —
	// and that scan must touch O(vertices) pages, demonstrating exactly
	// the cost the index removes.
	if err := os.Remove(filepath.Join(dir, "index.db")); err != nil {
		t.Fatal(err)
	}
	scan, err := Open(dir, Options{PageSize: 512, CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	if scan.Format().IndexLoaded {
		t.Error("open without index.db claims IndexLoaded")
	}
	vertexPages := int64(nVertices * vertexRecSize / 512)
	if got := scan.Stats().PageReads; got < vertexPages {
		t.Errorf("scan open read %d pages, expected at least the %d vertex pages", got, vertexPages)
	}
	if got := scan.CountLabelID(scan.LabelID("LA")); got != want {
		t.Errorf("CountLabel(LA) from scan = %d, want %d", got, want)
	}
}

// TestCorruptIndexFallsBackToScan flips a byte of index.db: the CRC must
// reject it and the open must silently rebuild by scanning.
func TestCorruptIndexFallsBackToScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 5, 60, 150); err != nil {
		t.Fatal(err)
	}
	want := storetest.Fingerprint(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "index.db")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatalf("corrupt index.db made Open fail: %v", err)
	}
	defer re.Close()
	if re.Format().IndexLoaded {
		t.Error("corrupt index.db was accepted")
	}
	if got := storetest.Fingerprint(re); got != want {
		t.Error("scan fallback store diverges")
	}
}

// TestFlushIsAtomic: flushes must go through temp-file + rename, so no
// .tmp litter survives a clean Close, and leftover temp files from a
// simulated crash are harmless garbage, not store state.
func TestFlushIsAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 9, 30, 60); err != nil {
		t.Fatal(err)
	}
	want := storetest.Fingerprint(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("temp file %s survived Close", e.Name())
		}
	}
	// A crash between writing a temp file and renaming it leaves garbage
	// .tmp files; the committed manifest/index must win.
	for _, name := range []string{"manifest.json.tmp", "index.db.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatalf("leftover temp files broke Open: %v", err)
	}
	defer re.Close()
	if got := storetest.Fingerprint(re); got != want {
		t.Error("store state diverged in the presence of leftover temp files")
	}
}

// buildMixedHub builds a hub vertex with fan out-edges of several
// interleaved types — the worst case for filtering typed traversals.
func buildMixedHub(t *testing.T, s *Store, fan int, types []string) storage.VID {
	t.Helper()
	hub, err := s.AddVertex("Hub")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fan; i++ {
		v, err := s.AddVertex("Leaf")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AddEdge(hub, v, types[i%len(types)]); err != nil {
			t.Fatal(err)
		}
	}
	return hub
}

// TestSegmentedTypedTraversalReadsFewerPages is the acceptance gate for
// type-segmented adjacency: after Compact, a typed ForEachOut on a
// mixed-type hub must touch a small fraction of the pages the unsegmented
// chain walk touches, while visiting exactly the same edges.
func TestSegmentedTypedTraversalReadsFewerPages(t *testing.T) {
	const fan = 500
	types := []string{"a", "b", "c", "d", "e"}
	collect := func(s *Store, hub storage.VID, et string) (int, int64) {
		if err := s.DropCache(); err != nil {
			t.Fatal(err)
		}
		s.ResetStats()
		n := 0
		s.ForEachOutID(hub, s.TypeID(et), func(storage.EID, storage.VID) bool { n++; return true })
		return n, s.Stats().PageReads
	}

	plain := newTestStore(t, Options{PageSize: 512, CachePages: 64})
	plainHub := buildMixedHub(t, plain, fan, types)
	seg := newTestStore(t, Options{PageSize: 512, CachePages: 64})
	segHub := buildMixedHub(t, seg, fan, types)
	if seg.SegmentedAdjacency() {
		t.Fatal("incrementally built store claims segmentation")
	}
	if err := seg.Compact(); err != nil {
		t.Fatal(err)
	}
	if !seg.SegmentedAdjacency() {
		t.Fatal("Compact did not establish segmentation")
	}

	wantN, plainReads := collect(plain, plainHub, "b")
	gotN, segReads := collect(seg, segHub, "b")
	if wantN != fan/len(types) || gotN != wantN {
		t.Fatalf("typed traversal visited %d (segmented) vs %d (plain), want %d", gotN, wantN, fan/len(types))
	}
	// 500 edges at 64 B span ~63 pages at 512 B; one type's segment is
	// ~13 contiguous pages plus the vertex and degree records.
	if segReads >= plainReads/3 {
		t.Errorf("segmented typed traversal read %d pages vs %d unsegmented; expected well under a third", segReads, plainReads)
	}
	// Typed degrees keep answering from the degree chain after Compact.
	if got := seg.DegreeID(segHub, seg.TypeID("b"), true); got != wantN {
		t.Errorf("Degree after Compact = %d, want %d", got, wantN)
	}
	// And the untyped walk still sees every edge.
	n := 0
	seg.ForEachOutID(segHub, storage.AnySymbol, func(storage.EID, storage.VID) bool { n++; return true })
	if n != fan {
		t.Errorf("untyped walk after Compact visited %d, want %d", n, fan)
	}
}

// runQuerySorted executes a Cypher query and returns its rows in
// comparison order.
func runQuerySorted(t *testing.T, g storage.Graph, src string) [][]string {
	t.Helper()
	q, err := cypher.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := query.Run(g, q)
	if err != nil {
		t.Fatal(err)
	}
	query.SortRowsForComparison(res.Rows)
	out := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		for _, v := range row {
			out[i] = append(out[i], v.String())
		}
	}
	return out
}

// upgradeQueries exercise label scans, typed expands in both directions,
// and typed aggregation over the BuildRandom vocabulary.
var upgradeQueries = []string{
	`MATCH (a:A)-[:r1]->(b) RETURN a.p0, b.p1`,
	`MATCH (a)-[:r2]->(b:B) RETURN COUNT(*)`,
	`MATCH (a:C)<-[:r3]-(b) RETURN a.p2, COUNT(b.p0)`,
}

// sameRows fails the test unless got and want hold the same rows.
func sameRows(t *testing.T, q string, got, want [][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("query %q: %d rows, want %d", q, len(got), len(want))
	}
	for r := range got {
		if strings.Join(got[r], "\x00") != strings.Join(want[r], "\x00") {
			t.Fatalf("query %q row %d: %q, want %q", q, r, got[r], want[r])
		}
	}
}

// TestCompactUpgradeRoundTrip opens each committed previous-release
// fixture, checks it against its recorded fingerprint, queries it, and
// Compacts it to v5 — the CI format-compat gate. Each row runs twice on
// fresh copies of the fixture:
//
//   - pristine: the fingerprint, the read surface and the upgradeQueries
//     rows must be identical before and after Compact plus reopen;
//   - written: a few Builder writes land first (the build path on v2/v3,
//     the WAL and delta on the live v4 store) and must survive the
//     upgrade.
//
// The fixtures cannot be regenerated by the current code, which writes
// only v5. They were written with the Options.Format knob of earlier
// releases (golden-v3 by the v3 code itself):
//
//   - golden-v2: Open(dir, Options{PageSize: 512, CachePages: 64, Format: 2}),
//     storetest.BuildRandom(s, 21, 60, 160), Close;
//   - golden-v4: Open(dir, Options{PageSize: 512, CachePages: 64, Format: 4}),
//     storetest.BuildRandomBulk(s, 21, 60, 160, 32), Close.
//
// FINGERPRINT.txt holds storetest.Fingerprint of the store before Close.
func TestCompactUpgradeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		version int
		// degrees: degrees.db has content (v3+). segmented, indexed and
		// live: how the store opens (v4 has index.db and type-grouped
		// chains, so it opens live).
		degrees, segmented, indexed, live bool
	}{
		{version: 2},
		{version: 3, degrees: true},
		{version: 4, degrees: true, segmented: true, indexed: true, live: true},
	} {
		t.Run(fmt.Sprintf("v%d", tc.version), func(t *testing.T) {
			fixture := fmt.Sprintf("testdata/golden-v%d", tc.version)
			want, err := os.ReadFile(filepath.Join(fixture, "FINGERPRINT.txt"))
			if err != nil {
				t.Fatalf("missing golden fixture: %v", err)
			}
			open := func(dir string) *Store {
				t.Helper()
				s, err := Open(dir, Options{PageSize: 512, CachePages: 32})
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				return s
			}
			openLegacy := func() (string, *Store) {
				t.Helper()
				dir := copyDir(t, fixture)
				if st, err := os.Stat(filepath.Join(dir, "degrees.db")); err != nil || (st.Size() > 0) != tc.degrees {
					t.Fatalf("fixture degrees.db: %v, want content %v", err, tc.degrees)
				}
				s := open(dir)
				got := s.Format()
				if got.Version != tc.version || got.Segmented != tc.segmented || got.IndexLoaded != tc.indexed || got.Compressed || s.Live() != tc.live {
					t.Fatalf("golden store opened as %+v live=%v", got, s.Live())
				}
				return dir, s
			}
			// upgrade Compacts s, reopens it and checks the v5 layout.
			upgrade := func(dir string, s *Store) *Store {
				t.Helper()
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				v5 := open(dir)
				t.Cleanup(func() { v5.Close() })
				if got := v5.Format(); got.Version != formatVersion || !got.Compressed || !got.Segmented || !got.IndexLoaded {
					t.Fatalf("upgraded store opened as %+v, want v%d compressed+indexed", got, formatVersion)
				}
				if storage.Statistics(v5).EdgeTypeCounts() == nil {
					t.Error("upgraded store has no persisted edge-type counts")
				}
				storetest.CheckReadSurface(t, v5)
				return v5
			}
			queryAll := func(g storage.Graph) [][][]string {
				var rows [][][]string
				for _, q := range upgradeQueries {
					rows = append(rows, runQuerySorted(t, g, q))
				}
				return rows
			}

			// Pristine round trip.
			dir, s := openLegacy()
			if got := storetest.Fingerprint(s); got != string(want) {
				t.Fatal("golden store no longer reproduces its recorded fingerprint")
			}
			storetest.CheckReadSurface(t, s)
			wantRows := queryAll(s)
			if len(wantRows[0]) == 0 {
				t.Error("golden store query returned no rows")
			}
			v5 := upgrade(dir, s)
			if got := storetest.Fingerprint(v5); got != string(want) {
				t.Error("upgraded golden store diverges from the recorded fingerprint")
			}
			for i, q := range upgradeQueries {
				sameRows(t, q, runQuerySorted(t, v5, q), wantRows[i])
			}

			// Written round trip.
			dir, s = openLegacy()
			v, err := s.AddVertex("A", "Written")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.AddEdge(v, 0, "r1"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.AddEdge(1, v, "r2"); err != nil {
				t.Fatal(err)
			}
			if err := s.SetProp(v, "p0", graph.S("written")); err != nil {
				t.Fatal(err)
			}
			if err := s.SetProp(0, "p1", graph.I(-7)); err != nil {
				t.Fatal(err)
			}
			if err := s.AddLabel(2, "Written"); err != nil {
				t.Fatal(err)
			}
			if s.Live() != tc.live {
				t.Fatalf("writes changed the store's mode: live=%v", s.Live())
			}
			wantWritten := storetest.Fingerprint(s)
			if wantWritten == string(want) {
				t.Fatal("writes did not change the fingerprint")
			}
			storetest.CheckReadSurface(t, s)
			wantRows = queryAll(s)
			v5 = upgrade(dir, s)
			if got := storetest.Fingerprint(v5); got != wantWritten {
				t.Error("writes did not survive the upgrade")
			}
			for i, q := range upgradeQueries {
				sameRows(t, q, runQuerySorted(t, v5, q), wantRows[i])
			}
		})
	}
}

// copyDir copies the flat fixture directory into a scratch dir so tests
// never mutate the committed golden files.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestBulkFlushAutoFinalizes: closing a store with pending bulk edges
// must finalize them — a reopened store sees fully linked adjacency.
func TestBulkFlushAutoFinalizes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.AddVertexBatch([]storage.BulkVertex{{Labels: []string{"N"}}, {Labels: []string{"N"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdgeBatch([]storage.BulkEdge{{Src: first, Dst: first + 1, Type: "t"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // no explicit Finalize
		t.Fatal(err)
	}
	re, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.SegmentedAdjacency() {
		t.Error("auto-finalized store not segmented")
	}
	if got := re.DegreeID(first, re.TypeID("t"), true); got != 1 {
		t.Errorf("Degree = %d, want 1", got)
	}
	n := 0
	re.ForEachOutID(first, re.TypeID("t"), func(_ storage.EID, dst storage.VID) bool {
		if dst != first+1 {
			t.Errorf("edge points at %d, want %d", dst, first+1)
		}
		n++
		return true
	})
	if n != 1 {
		t.Errorf("adjacency walk saw %d edges, want 1", n)
	}
}

// TestDirtyFlushInvalidatesIndexFirst pins the crash-safety ordering:
// the first mutation removes index.db immediately — before any page
// write, and in particular before cache eviction can push a dirty page
// to disk — so a crash at any later point leaves no index rather than a
// stale one that still validates. The nasty case is a mutation invisible
// to the index's count/symbol validation — adding an existing label to
// an existing vertex.
func TestDirtyFlushInvalidatesIndexFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddVertex("L"); err != nil {
		t.Fatal(err)
	}
	v1, err := s.AddVertex("M")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !re.Format().IndexLoaded {
		t.Fatal("precondition: index not loaded")
	}
	// Counts and symbol tables are unchanged by this mutation, so the old
	// index would still pass validation if it survived.
	if err := re.AddLabel(v1, "L"); err != nil {
		t.Fatal(err)
	}
	// The mutation itself must have removed the index — eviction could
	// write the dirty vertex page to disk at any moment from here on.
	if _, err := os.Stat(re.indexPath(0)); !os.IsNotExist(err) {
		t.Fatalf("index.db still present after a mutation (stat err: %v)", err)
	}
	// Simulate a crash after the dirty page reaches disk and before any
	// Flush completes.
	if err := re.curEp().pager.flush(); err != nil {
		t.Fatal(err)
	}
	// (crash: no writeIndex, no manifest rewrite, no Close)

	crashed, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer crashed.Close()
	if crashed.Format().IndexLoaded {
		t.Error("crashed store loaded an index that predates its data")
	}
	if got := crashed.CountLabelID(crashed.LabelID("L")); got != 2 {
		t.Errorf("label scan after crash sees %d L-vertices, want 2 (stale index served?)", got)
	}
	// And the real Flush must behave identically up to its crash point:
	// a dirty store's Flush leaves a fresh, loadable index behind.
	if err := crashed.AddLabel(v1, "M"); err == nil {
		// v1 already has M; this is a no-op that must not dirty anything.
		_ = err
	}
	if err := crashed.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(crashed.indexPath(0)); err != nil {
		t.Errorf("Flush did not restore index.db: %v", err)
	}
}

// TestCleanCloseDoesNotRewrite: opening and closing a store without
// mutating it must leave index.db and manifest.json untouched — reading
// a store is not a write workload.
func TestCleanCloseDoesNotRewrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 3, 30, 60); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	old := time.Unix(1_000_000_000, 0)
	files := []string{"index.db", "manifest.json"}
	for _, f := range files {
		if err := os.Chtimes(filepath.Join(dir, f), old, old); err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	re.CountLabelID(re.LabelID("A"))
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		if !st.ModTime().Equal(old) {
			t.Errorf("%s was rewritten by a read-only open/close cycle", f)
		}
	}
	// But a v4 store whose index is missing self-repairs on close.
	if err := os.Remove(filepath.Join(dir, "index.db")); err != nil {
		t.Fatal(err)
	}
	scan, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.db")); err != nil {
		t.Errorf("scan-opened store did not repair index.db on close: %v", err)
	}
}

// TestInterruptedFinalizeRefused: a finalize/compact that never committed
// leaves its marker behind, and Open must refuse the store instead of
// serving possibly half-rewritten edge records; a committed Compact
// leaves no marker.
func TestInterruptedFinalizeRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 11, 40, 90); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, finalizeMarker)); !os.IsNotExist(err) {
		t.Fatalf("marker survived a committed Compact (stat err: %v)", err)
	}
	re, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: the marker is on disk, the rewrite never
	// committed.
	if err := os.WriteFile(filepath.Join(dir, finalizeMarker), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{PageSize: 512, CachePages: 16}); err == nil {
		t.Fatal("store with an in-flight finalize marker was opened")
	}
}

// TestAddEdgeBatchPartialFailureStillFinalizes: a batch that fails
// mid-way must leave the store flagged for finalize, so the appended
// prefix gets linked by the next Flush instead of becoming unreachable
// counted edges.
func TestAddEdgeBatchPartialFailureStillFinalizes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.AddVertexBatch([]storage.BulkVertex{{Labels: []string{"N"}}, {Labels: []string{"N"}}})
	if err != nil {
		t.Fatal(err)
	}
	batch := []storage.BulkEdge{
		{Src: first, Dst: first + 1, Type: "t"},
		{Src: first, Dst: 999, Type: "t"}, // out of range: fails after the first edge landed
	}
	if err := s.AddEdgeBatch(batch); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.NumEdges(); got != 1 {
		t.Fatalf("NumEdges = %d, want the 1 successfully appended edge", got)
	}
	n := 0
	re.ForEachOutID(first, re.TypeID("t"), func(_ storage.EID, dst storage.VID) bool { n++; return true })
	if n != 1 {
		t.Errorf("appended edge unreachable after reopen: walk saw %d", n)
	}
}
