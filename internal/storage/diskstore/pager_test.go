package diskstore

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/storetest"
)

func TestPagerShardCount(t *testing.T) {
	cases := []struct{ capacity, shards int }{
		{1, 1}, {2, 1}, {4, 1}, {8, 2}, {16, 4}, {64, 16}, {256, 16}, {1024, 16},
	}
	for _, c := range cases {
		if got := pagerShards(c.capacity); got != c.shards {
			t.Errorf("pagerShards(%d) = %d, want %d", c.capacity, got, c.shards)
		}
	}
}

func TestPagerShardIndexInRange(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 256, CachePages: 64})
	p := s.curEp().pager
	if len(p.shards) != 16 {
		t.Fatalf("shards = %d, want 16", len(p.shards))
	}
	for f := fileID(0); f < numFiles; f++ {
		for pg := int64(0); pg < 10000; pg++ {
			sh := p.shardOf(pageKey{f, pg})
			found := false
			for i := range p.shards {
				if sh == &p.shards[i] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("shardOf(%d,%d) points outside the shard slice", f, pg)
			}
		}
	}
}

// TestPagerCapacityRespected checks that a read sweep far larger than the
// page budget leaves at most capacity frames resident: the per-shard clock
// sweeps actually evict.
func TestPagerCapacityRespected(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 256, CachePages: 16})
	if _, err := storetest.BuildRandom(s, 11, 300, 900); err != nil {
		t.Fatal(err)
	}
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	storetest.Fingerprint(s) // touches every record file end to end
	if got := s.curEp().pager.resident(); got > s.opts.CachePages {
		t.Errorf("%d pages resident after sweep, budget %d", got, s.opts.CachePages)
	}
	st := s.Stats()
	if st.PageMisses <= int64(s.opts.CachePages) {
		t.Errorf("only %d misses; sweep did not outrun the %d-page budget", st.PageMisses, s.opts.CachePages)
	}
}

// TestPagerConcurrentEvictionPressure is the shard-rewrite stress test:
// eight goroutines sweep the full read surface of a store whose page
// budget is a small fraction of its data, so shards constantly load and
// evict under concurrent access. Every sweep must observe exactly the
// serial state. Run under -race this proves loads, evictions, latches,
// and the atomic stats counters are data-race free.
func TestPagerConcurrentEvictionPressure(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 256, CachePages: 16})
	if _, err := storetest.BuildRandom(s, 99, 200, 600); err != nil {
		t.Fatal(err)
	}
	if err := s.DropCache(); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	want := storetest.Fingerprint(s)
	wantDeg := make([]int, s.NumVertices())
	for v := range wantDeg {
		wantDeg[v] = s.DegreeID(storage.VID(v), s.TypeID("r1"), true)
	}

	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if got := storetest.Fingerprint(s); got != want {
					t.Errorf("goroutine %d sweep %d: fingerprint diverged under eviction pressure", g, i)
					return
				}
				deg := make([]int, s.NumVertices())
				for v := range deg {
					deg[v] = s.DegreeID(storage.VID(v), s.TypeID("r1"), true)
				}
				if !reflect.DeepEqual(deg, wantDeg) {
					t.Errorf("goroutine %d sweep %d: degrees diverged under eviction pressure", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	// The store spans far more than 16 pages, so concurrent sweeps must
	// have evicted and re-read pages, not just served hits.
	if st.PageMisses <= int64(s.opts.CachePages) {
		t.Errorf("misses = %d; no eviction pressure reached the shards", st.PageMisses)
	}
	if st.PageReads == 0 {
		t.Error("no physical reads despite a cold start")
	}
	if got := s.curEp().pager.resident(); got > s.opts.CachePages {
		t.Errorf("%d pages resident, budget %d", got, s.opts.CachePages)
	}
}

// TestPagerDirtyEvictionRoundTrip forces dirty pages out through the clock
// sweep (not flush) and checks the data survives: write-back on eviction
// works.
func TestPagerDirtyEvictionRoundTrip(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 256, CachePages: 4})
	// Build enough state that building itself overflows 4 pages many
	// times over, evicting dirty pages mid-build.
	if _, err := storetest.BuildRandom(s, 5, 120, 300); err != nil {
		t.Fatal(err)
	}
	got := storetest.Fingerprint(s)
	want := newMemReference(t, 5, 120, 300)
	if got != want {
		t.Error("state diverged after dirty evictions (write-back broken)")
	}
}

// sweepPages reads the first bytes of every page of the file once.
func sweepPages(t *testing.T, p *pager, f fileID) {
	t.Helper()
	buf := make([]byte, 8)
	for off := int64(0); off < p.sizes[f].Load(); off += int64(p.pageSize) {
		if err := p.read(f, off, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPagerReadAllocsFree checks that a miss reuses the frame it evicts:
// once the cache is full, reads that miss every time allocate nothing.
func TestPagerReadAllocsFree(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 256, CachePages: 4})
	if _, err := storetest.BuildRandom(s, 11, 300, 900); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	p := s.curEp().pager
	pages := p.sizes[fileProps].Load() / int64(p.pageSize)
	if pages < 10*int64(s.opts.CachePages) {
		t.Fatalf("props file spans %d pages; want many times the %d-page cache", pages, s.opts.CachePages)
	}
	sweepPages(t, p, fileProps) // fills the cache

	buf := make([]byte, 8)
	next := int64(0)
	p.resetStats()
	allocs := testing.AllocsPerRun(200, func() {
		if err := p.read(fileProps, next*int64(p.pageSize), buf); err != nil {
			t.Fatal(err)
		}
		next = (next + 1) % pages
	})
	if st := p.readStats(); st.PageHits != 0 || st.PageMisses == 0 {
		t.Fatalf("sweep got %d hits, %d misses; want misses only", st.PageHits, st.PageMisses)
	}
	if allocs != 0 {
		t.Errorf("pager.read on a miss allocates %.1f times; want 0", allocs)
	}
}

// TestPagerRecycledFramePastEOF writes a few bytes into a page past EOF
// after the cache has filled with data pages, so the write lands in a
// recycled frame. The rest of that page must read as zeros, from the
// cache and from the file after write-back.
func TestPagerRecycledFramePastEOF(t *testing.T) {
	s := newTestStore(t, Options{PageSize: 256, CachePages: 4})
	if _, err := storetest.BuildRandom(s, 11, 300, 900); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	p := s.curEp().pager
	sweepPages(t, p, fileProps)
	if got := p.resident(); got != s.opts.CachePages {
		t.Fatalf("%d pages resident after the sweep; want the full %d", got, s.opts.CachePages)
	}

	ps := int64(p.pageSize)
	pageOff := (p.sizes[fileBlobs].Load()/ps + 2) * ps
	payload := []byte{0xA1, 0xB2, 0xC3}
	const within = 10
	if err := p.write(fileBlobs, pageOff+within, payload); err != nil {
		t.Fatal(err)
	}
	if got := p.resident(); got != s.opts.CachePages {
		t.Fatalf("%d pages resident after the write; want %d (a recycled frame)", got, s.opts.CachePages)
	}
	want := make([]byte, ps)
	copy(want[within:], payload)
	check := func(q *pager, when string) {
		t.Helper()
		got := make([]byte, ps)
		if err := q.read(fileBlobs, pageOff, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: page past EOF reads %x; want %x", when, got, want)
		}
	}
	check(p, "cached")

	if err := p.flush(); err != nil {
		t.Fatal(err)
	}
	reopened, err := newPager(p.files, p.pageSize, s.opts.CachePages)
	if err != nil {
		t.Fatal(err)
	}
	check(reopened, "after flush and reopen")
}
