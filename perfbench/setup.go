package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/loader"
	"repro/internal/ontology"
	"repro/internal/optimizer"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/storage/diskstore"
	"repro/internal/storage/memstore"
	"repro/internal/workload"
)

// mixSize is the number of Zipf draws in a workload's query mix.
const mixSize = 200

// budgetFrac is the PGSG space budget as a share of Cost(NSC).
const budgetFrac = 0.5

// setupTimes splits one set-up into the layers it calls.
type setupTimes struct {
	gen   time.Duration // dataset and query-mix generation (datagen, workload)
	pgsg  time.Duration // optimizer inputs, Cost(NSC) and PGSG
	load  time.Duration // store open, loader.Load with finalize, flush
	start time.Duration // server.New plus listener start
	// cpu is the process CPU time (user plus system, every thread) of
	// the whole set-up.
	cpu time.Duration
}

func (t setupTimes) total() time.Duration { return t.gen + t.pgsg + t.load + t.start }

func (t setupTimes) cpuTime() time.Duration { return t.cpu }

// fixture is one served workload: the OPT store behind a live server,
// plus the generated inputs the benchmark checks answers against.
type fixture struct {
	spec     spec
	data     *datagen.Dataset // released once reference answers exist
	mix      *workload.Workload
	mapping  *core.Mapping
	graph    storage.Graph
	disk     *diskstore.Store // nil on memstore
	storeDir string
	srv      *server.Server
	addr     string
	times    setupTimes
}

// ontologyFor returns the named dataset's ontology.
func ontologyFor(name string) (*ontology.Ontology, error) {
	switch name {
	case "MED":
		return datagen.MED(), nil
	case "FIN":
		return datagen.FIN(), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

// setUp generates the workload's dataset and mix from seed, optimizes the
// schema with PGSG, loads the OPT store and starts the server on a
// loopback port. Everything it times is what a deployment pays before
// serving its first query.
func setUp(sp spec, seed int64, dataDir string) (*fixture, error) {
	f := &fixture{spec: sp}
	t0 := time.Now()
	o, err := ontologyFor(sp.dataset)
	if err != nil {
		return nil, err
	}
	if f.data, err = datagen.Generate(o, datagen.Options{Seed: seed, BaseCard: sp.card}); err != nil {
		return nil, err
	}
	if f.mix, err = workload.Generate(o, mixSize, workload.Zipf, seed); err != nil {
		return nil, err
	}
	t1 := time.Now()
	in, err := optimizer.NewInputs(o, f.data.Stats, f.mix.AF, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	nsc, err := in.NSCCost()
	if err != nil {
		return nil, err
	}
	plan, err := optimizer.PGSG(in, nsc*budgetFrac)
	if err != nil {
		return nil, err
	}
	f.mapping = plan.Result.Mapping
	t2 := time.Now()
	// The load includes finalize and a flush to a committed generation.
	st, disk, dir, err := loadStore(sp, f.data, f.mapping, dataDir, "opt")
	if err != nil {
		return nil, err
	}
	f.graph, f.disk, f.storeDir = st, disk, dir
	t3 := time.Now()
	f.srv, err = server.New(server.Config{
		Graph:                 f.graph,
		Mapping:               f.mapping,
		AutoCompactDeltaItems: sp.autoCompact,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	if f.addr, err = f.srv.Start("127.0.0.1:0"); err != nil {
		f.srv = nil
		f.close()
		return nil, err
	}
	t4 := time.Now()
	f.times = setupTimes{gen: t1.Sub(t0), pgsg: t2.Sub(t1), load: t3.Sub(t2), start: t4.Sub(t3)}
	return f, nil
}

// openStore creates an empty store for the workload's backend; dir is
// "" on memstore.
func openStore(sp spec, dataDir, tag string) (storage.Builder, *diskstore.Store, string, error) {
	if sp.backend == "memstore" {
		return memstore.New(), nil, "", nil
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, nil, "", err
	}
	dir, err := os.MkdirTemp(dataDir, sp.name+"-"+tag+"-*")
	if err != nil {
		return nil, nil, "", err
	}
	st, err := diskstore.Open(dir, diskstore.Options{CachePages: sp.cachePages})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, "", err
	}
	return st, st, dir, nil
}

// loadStore opens a store and loads the dataset under the mapping (nil:
// the direct schema). A diskstore is flushed, so it serves a committed
// generation.
func loadStore(sp spec, ds *datagen.Dataset, m *core.Mapping, dataDir, tag string) (storage.Builder, *diskstore.Store, string, error) {
	st, disk, dir, err := openStore(sp, dataDir, tag)
	if err != nil {
		return nil, nil, "", err
	}
	if _, _, err = loader.Load(st, ds, m); err == nil && disk != nil {
		err = disk.Flush()
	}
	if err != nil {
		closeStore(disk, dir)
		return nil, nil, "", err
	}
	return st, disk, dir, nil
}

// closeStore closes a diskstore and removes its directory.
func closeStore(disk *diskstore.Store, dir string) {
	if disk != nil {
		disk.Close()
	}
	if dir != "" {
		os.RemoveAll(dir)
	}
}

// storeBytes is the on-disk size of the store directory (0 on memstore).
func (f *fixture) storeBytes() (int64, error) {
	if f.storeDir == "" {
		return 0, nil
	}
	var n int64
	err := filepath.WalkDir(f.storeDir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// close drains the server, waits for background folds, and removes the
// store.
func (f *fixture) close() {
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		f.srv.Shutdown(ctx)
		cancel()
		f.srv = nil
	}
	closeStore(f.disk, f.storeDir)
	f.disk, f.storeDir = nil, ""
}
