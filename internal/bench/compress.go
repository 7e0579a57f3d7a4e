package bench

// The format-v5 compression experiment: a synthetic graph stored in the
// v5 delta-varint layout, measured on adjacency bytes per edge (and the
// ratio against the fixed 64-byte edge record older layouts used), total
// bytes on disk, and typed-traversal throughput under a deliberately
// tight page budget — with the mmap read path both off and on. It also
// reports the bloom-guard skip rate for absent-value property probes,
// which the v5 statistics block answers without a scan.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/cypher"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/storetest"
)

// CompressOptions configures the compression experiment.
type CompressOptions struct {
	// Vertices and Edges size the synthetic graph (storetest.BuildRandomBulk).
	Vertices, Edges int
	// Seed drives the deterministic graph generator.
	Seed int64
	// TightPages is the page-cache budget for every traversal
	// measurement — far below the store's working set, so the numbers
	// measure the layout's locality rather than a warm cache.
	TightPages int
	// PageSize is the cache page size (default 4096).
	PageSize int
	// Passes is the number of timed full-graph traversal sweeps per
	// goroutine.
	Passes int
	// Probes is the number of absent-value property queries used to
	// measure the bloom-guard skip rate.
	Probes int
	// DataDir overrides the scratch location (default os.TempDir()).
	DataDir string
}

func (o CompressOptions) withDefaults() CompressOptions {
	if o.Vertices == 0 {
		o.Vertices = 20000
	}
	if o.Edges == 0 {
		o.Edges = o.Vertices * 3
	}
	if o.Seed == 0 {
		o.Seed = 2021
	}
	if o.TightPages == 0 {
		o.TightPages = 16
	}
	if o.PageSize == 0 {
		o.PageSize = 4096
	}
	if o.Passes == 0 {
		o.Passes = 8
	}
	if o.Probes == 0 {
		o.Probes = 50
	}
	return o
}

// edgeRecordBytes is the fixed edge-record size of the pre-v5 layouts:
// the compression ratio is measured against it, so it needs no v4 store.
const edgeRecordBytes = 64

// CompressRow is one mmap setting of the experiment.
type CompressRow struct {
	Mmap            bool
	Vertices        int
	Edges           int
	EdgeBytes       int64   // logical adjacency bytes (FormatInfo.EdgeBytes)
	BytesPerEdge    float64 // EdgeBytes / Edges
	Ratio           float64 // edgeRecordBytes / BytesPerEdge
	DiskBytes       int64   // every store file summed
	SingleOpsPerSec float64 // edge visits/s, one goroutine
	FourOpsPerSec   float64 // edge visits/s, four goroutines
	BloomSkipRate   float64 // absent-value probes skipped / probes
}

// Compress builds the random graph into a diskstore, then measures it
// reopened under the tight page budget with the mmap read path off and
// on — two rows. Throughput is full-graph typed out-adjacency sweeps,
// reported as edge visits per second.
func Compress(o CompressOptions) ([]CompressRow, error) {
	o = o.withDefaults()
	base := o.DataDir
	if base == "" {
		base = os.TempDir()
	}
	scratch, err := os.MkdirTemp(base, "pgs-compress-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	st, err := diskstore.Open(scratch, diskstore.Options{PageSize: o.PageSize})
	if err != nil {
		return nil, err
	}
	if _, err := storetest.BuildRandomBulk(st, o.Seed, o.Vertices, o.Edges, 1024); err != nil {
		st.Close()
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	var rows []CompressRow
	for _, useMmap := range []bool{false, true} {
		row, err := compressOne(scratch, useMmap, o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// compressOne reopens one prebuilt store under the tight budget and
// takes every measurement for its row.
func compressOne(dir string, useMmap bool, o CompressOptions) (CompressRow, error) {
	st, err := diskstore.Open(dir, diskstore.Options{
		PageSize: o.PageSize, CachePages: o.TightPages, Mmap: useMmap,
	})
	if err != nil {
		return CompressRow{}, err
	}
	defer st.Close()

	disk, err := dirSize(dir)
	if err != nil {
		return CompressRow{}, err
	}
	info := st.Format()
	nV, nE := st.NumVertices(), st.NumEdges()
	row := CompressRow{
		Mmap:     useMmap,
		Vertices: nV, Edges: nE,
		EdgeBytes: info.EdgeBytes, DiskBytes: disk,
	}
	if nE > 0 {
		row.BytesPerEdge = float64(info.EdgeBytes) / float64(nE)
	}
	if row.BytesPerEdge > 0 {
		row.Ratio = edgeRecordBytes / row.BytesPerEdge
	}

	types := make([]storage.SymbolID, 0, 3)
	for _, et := range []string{"r1", "r2", "r3"} {
		if id := st.TypeID(et); id != storage.NoSymbol {
			types = append(types, id)
		}
	}
	sweep := func() int64 {
		var visited int64
		for _, tid := range types {
			for v := 0; v < nV; v++ {
				st.ForEachOutID(storage.VID(v), tid, func(storage.EID, storage.VID) bool {
					visited++
					return true
				})
			}
		}
		return visited
	}
	sweep() // warm to steady state; the tight cache thrashes either way

	ms, err := timeIt(func() error {
		for p := 0; p < o.Passes; p++ {
			sweep()
		}
		return nil
	})
	if err != nil {
		return CompressRow{}, err
	}
	row.SingleOpsPerSec = float64(o.Passes*nE) / (ms / 1000)

	const workers = 4
	ms, err = timeIt(func() error {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := 0; p < o.Passes; p++ {
					sweep()
				}
			}()
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return CompressRow{}, err
	}
	row.FourOpsPerSec = float64(workers*o.Passes*nE) / (ms / 1000)

	rate, err := bloomSkipRate(st, o.Probes)
	if err != nil {
		return CompressRow{}, err
	}
	row.BloomSkipRate = rate
	return row, nil
}

// bloomSkipRate runs absent-value property probes against the store and
// reports the fraction the statistics guard skipped without scanning.
func bloomSkipRate(st *diskstore.Store, probes int) (float64, error) {
	if probes <= 0 {
		return 0, nil
	}
	before := query.BloomSkips()
	for i := 0; i < probes; i++ {
		src := fmt.Sprintf(`MATCH (a:A {p0: 'compress-absent-%d'}) RETURN a.p1`, i)
		p, err := query.Prepare(st, cypher.MustParse(src))
		if err != nil {
			return 0, err
		}
		if _, err := p.ExecuteParallelContextWithStats(context.Background(), 1, &query.Stats{}); err != nil {
			return 0, err
		}
	}
	return float64(query.BloomSkips()-before) / float64(probes), nil
}

// dirSize sums the sizes of every regular file under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	return total, err
}

// FormatCompressTable renders the compression comparison.
func FormatCompressTable(title string, rows []CompressRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-5s %9s %9s %11s %8s %8s %11s %13s %13s %11s\n",
		title, "mmap", "vertices", "edges", "edge-bytes", "B/edge",
		"vs-64B", "disk-bytes", "1-thr edge/s", "4-thr edge/s", "bloom-skip")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5v %9d %9d %11d %8.2f %7.1fx %11d %13.0f %13.0f %10.0f%%\n",
			r.Mmap, r.Vertices, r.Edges, r.EdgeBytes, r.BytesPerEdge,
			r.Ratio, r.DiskBytes, r.SingleOpsPerSec, r.FourOpsPerSec,
			r.BloomSkipRate*100)
	}
	return b.String()
}
