package diskstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/memstore"
	"repro/internal/storage/storetest"
)

func newTestStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

func TestConformance(t *testing.T) {
	storetest.Run(t, func(t *testing.T) storage.Builder { return newTestStore(t, Options{}) })
}

// TestConformanceTinyCache forces constant page eviction so every access
// path is exercised with cache misses.
func TestConformanceTinyCache(t *testing.T) {
	storetest.Run(t, func(t *testing.T) storage.Builder {
		return newTestStore(t, Options{PageSize: 256, CachePages: 4})
	})
}

func TestDifferentialAgainstMemstore(t *testing.T) {
	disk := newTestStore(t, Options{PageSize: 512, CachePages: 8})
	if _, err := storetest.BuildRandom(disk, 42, 80, 200); err != nil {
		t.Fatal(err)
	}
	mem := newMemReference(t, 42, 80, 200)
	if got, want := storetest.Fingerprint(disk), mem; got != want {
		t.Errorf("diskstore state diverges from memstore reference:\n got: %.300s...\nwant: %.300s...", got, want)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 99, 60, 150); err != nil {
		t.Fatal(err)
	}
	before := storetest.Fingerprint(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{PageSize: 512, CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := storetest.Fingerprint(re); got != before {
		t.Error("reopened store does not match original")
	}
	if got, want := re.CountLabelID(re.LabelID("A")), s.CountLabelID(s.LabelID("A")); got != want {
		t.Errorf("label index after reopen: %d, want %d", got, want)
	}
}

func TestStatsCountersMove(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 256, CachePages: 2})
	v, err := s.AddVertex("N")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.SetProp(v, "k", graph.I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.PageMisses == 0 {
		t.Error("tiny cache produced no misses")
	}
	if st.PageHits == 0 {
		t.Error("no page hits at all")
	}
	s.ResetStats()
	if s.Stats() != (storage.Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}

func TestDropCachePreservesData(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 512, CachePages: 16})
	v, err := s.AddVertex("N")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetProp(v, "k", graph.S("survives")); err != nil {
		t.Fatal(err)
	}
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	got, ok := s.PropID(v, s.KeyID("k"))
	if !ok || got.Str() != "survives" {
		t.Errorf("after DropCache: %v %v", got, ok)
	}
	if s.Stats().PageReads == 0 {
		t.Error("cold read after DropCache did not touch disk")
	}
}

func TestLongStringsSpanPages(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 256, CachePages: 4})
	v, err := s.AddVertex("N")
	if err != nil {
		t.Fatal(err)
	}
	long := make([]byte, 5000)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	if err := s.SetProp(v, "blob", graph.S(string(long))); err != nil {
		t.Fatal(err)
	}
	got, ok := s.PropID(v, s.KeyID("blob"))
	if !ok || got.Str() != string(long) {
		t.Error("multi-page blob corrupted")
	}
}

func TestListRoundTripThroughDisk(t *testing.T) {
	s := newTestStore(t, Options{})
	v, err := s.AddVertex("N")
	if err != nil {
		t.Fatal(err)
	}
	want := graph.L(graph.S("fever"), graph.S("headache"), graph.I(3), graph.F(1.5), graph.B(true), graph.Null)
	if err := s.SetProp(v, "list", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.PropID(v, s.KeyID("list"))
	if !ok || !got.Equal(want) {
		t.Errorf("list round trip: %v, want %v", got, want)
	}
}

func TestNestedListRejected(t *testing.T) {
	s := newTestStore(t, Options{})
	v, err := s.AddVertex("N")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetProp(v, "nested", graph.L(graph.L(graph.I(1)))); err == nil {
		t.Error("nested list stored without error")
	}
}

func TestBadOptionsRejected(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{PageSize: 100}); err == nil {
		t.Error("page size not divisible by record size accepted")
	}
}

// TestTypedDegreeAvoidsAdjacencyWalk proves typed DegreeID is served from
// the per-type degree chain: on a hub vertex with a long adjacency chain,
// a cold typed degree lookup must read far fewer pages than the chain
// spans.
func TestTypedDegreeAvoidsAdjacencyWalk(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 512, CachePages: 64})
	hub, err := s.AddVertex("Hub")
	if err != nil {
		t.Fatal(err)
	}
	const fan = 500
	for i := 0; i < fan; i++ {
		v, err := s.AddVertex("Leaf")
		if err != nil {
			t.Fatal(err)
		}
		et := "a"
		if i%5 == 0 {
			et = "b"
		}
		if _, err := s.AddEdge(hub, v, et); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	if got := s.DegreeID(hub, s.TypeID("b"), true); got != fan/5 {
		t.Fatalf("Degree(hub, b, out) = %d, want %d", got, fan/5)
	}
	if got := s.DegreeID(hub, s.TypeID("a"), true); got != fan-fan/5 {
		t.Fatalf("Degree(hub, a, out) = %d, want %d", got, fan-fan/5)
	}
	st := s.Stats()
	// 500 edge records at 64 B span ~63 pages at 512 B; the degree chain
	// (2 records) plus the vertex record fit in a handful.
	if st.PageReads > 6 {
		t.Errorf("typed degree read %d pages cold; looks like an adjacency walk", st.PageReads)
	}
	// And the result still matches an actual walk.
	n := 0
	s.ForEachOutID(hub, s.TypeID("b"), func(storage.EID, storage.VID) bool { n++; return true })
	if n != fan/5 {
		t.Errorf("walk count %d disagrees with degree counter", n)
	}
}

// rewriteManifestVersion rewrites dir's manifest to the given format
// version, simulating a store written by an older build.
func rewriteManifestVersion(t *testing.T, dir string, version int) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = version
	// v2 manifests never carried degree-record counts.
	delete(m, "num_degs")
	data, err = json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV2StoreRemainsReadable opens a store whose manifest declares format
// v2 (no per-type degree records): typed degrees must fall back to the
// adjacency walk, all reads must work, and flushing must keep the store a
// v2 store on disk.
func TestV2StoreRemainsReadable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storetest.BuildRandom(s, 7, 50, 120); err != nil {
		t.Fatal(err)
	}
	want := storetest.Fingerprint(s)
	wantDeg := s.DegreeID(0, s.TypeID("r1"), true)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rewriteManifestVersion(t, dir, 2)

	v2, err := Open(dir, Options{PageSize: 512, CachePages: 16})
	if err != nil {
		t.Fatalf("v2 store rejected: %v", err)
	}
	if !v2.curEp().legacyDegrees() {
		t.Error("v2 store not flagged as legacy")
	}
	if got := storetest.Fingerprint(v2); got != want {
		t.Error("v2 store contents diverge")
	}
	if got := v2.DegreeID(0, v2.TypeID("r1"), true); got != wantDeg {
		t.Errorf("v2 typed degree = %d, want %d", got, wantDeg)
	}
	// Edges added to a legacy store keep typed degrees correct via the
	// fallback walk even though no degree records are maintained.
	if _, err := v2.AddEdge(0, 1, "r1"); err != nil {
		t.Fatal(err)
	}
	if got := v2.DegreeID(0, v2.TypeID("r1"), true); got != wantDeg+1 {
		t.Errorf("v2 typed degree after AddEdge = %d, want %d", got, wantDeg+1)
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}

	// Closing must not silently upgrade the on-disk format.
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Version != 2 {
		t.Errorf("manifest version after reflush = %d, want 2", m.Version)
	}
	if _, err := Open(dir, Options{PageSize: 512, CachePages: 16}); err != nil {
		t.Errorf("v2 store unreadable after reflush: %v", err)
	}
}

func TestUnknownFormatVersionRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddVertex("N"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, formatVersion + 1} {
		rewriteManifestVersion(t, dir, v)
		if _, err := Open(dir, Options{}); err == nil {
			t.Errorf("format v%d accepted", v)
		}
	}
}

func newMemReference(t *testing.T, seed int64, nv, ne int) string {
	t.Helper()
	mem := memstore.New()
	if _, err := storetest.BuildRandom(mem, seed, nv, ne); err != nil {
		t.Fatal(err)
	}
	return storetest.Fingerprint(mem)
}

// TestPropIDStringAllocs pins the cost of reading a string property on a
// warm cache: the blob bytes go through a pooled buffer, so the returned
// string is the only allocation.
func TestPropIDStringAllocs(t *testing.T) {
	s := newTestStore(t, Options{})
	v, err := s.AddVertex("Drug")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetProp(v, "name", graph.S("acetylsalicylic acid")); err != nil {
		t.Fatal(err)
	}
	key := s.KeyID("name")
	if val, ok := s.PropID(v, key); !ok || val.Str() != "acetylsalicylic acid" {
		t.Fatalf("PropID = %v, %v", val, ok)
	}
	allocs := testing.AllocsPerRun(100, func() { s.PropID(v, key) })
	if allocs > 1 {
		t.Errorf("PropID of a string property allocates %.1f times; want at most 1", allocs)
	}
}
