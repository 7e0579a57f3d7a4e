package query

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/storage"
	"repro/internal/storage/memstore"
)

// buildWideGraph creates n Drug vertices so a cross-product query has
// enough iterations (n*n) for the cancellation checkpoint to fire.
func buildWideGraph(t *testing.T, n int) storage.Builder {
	t.Helper()
	mem := memstore.New()
	for i := 0; i < n; i++ {
		v, err := mem.AddVertex("Drug")
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.SetProp(v, "name", graph.I(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return mem
}

func TestExecuteContextCompletes(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	p, err := Prepare(mem, cypher.MustParse(`MATCH (d:Drug) RETURN d.name ORDER BY d.name`))
	if err != nil {
		t.Fatal(err)
	}
	// A context that can be canceled but never is polls on every
	// checkpoint and must finish with the same rows as one that cannot.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := p.ExecuteParallelContextWithStats(ctx, 1, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.ExecuteParallelContextWithStats(context.Background(), 1, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want.Rows) {
		t.Errorf("cancelable-context rows = %d, background rows = %d", len(res.Rows), len(want.Rows))
	}
}

func TestExecuteContextAlreadyCanceled(t *testing.T) {
	mem := memstore.New()
	buildMedGraph(t, mem)
	p, err := Prepare(mem, cypher.MustParse(`MATCH (d:Drug) RETURN d.name`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ExecuteParallelContextWithStats(ctx, 1, &Stats{}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled context: err = %v, want context.Canceled", err)
	}
}

// cancelAfterGraph cancels a context from inside the store once
// HasLabelID has been called n times, making mid-query cancellation deterministic:
// the executor must notice within cancelMask+1 further iterations.
type cancelAfterGraph struct {
	storage.Graph
	cancel context.CancelFunc
	after  int64
	calls  atomic.Int64
}

func (g *cancelAfterGraph) HasLabelID(v storage.VID, label storage.SymbolID) bool {
	if g.calls.Add(1) == g.after {
		g.cancel()
	}
	return g.Graph.HasLabelID(v, label)
}

func TestExecuteContextCancelMidQuery(t *testing.T) {
	const n = 600 // n*n iterations without cancellation
	mem := buildWideGraph(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Every scan candidate is checked against its node's labels, so each
	// one calls HasLabelID.
	g := &cancelAfterGraph{Graph: mem, cancel: cancel, after: 3 * cancelMask}
	p, err := Prepare(g, cypher.MustParse(`MATCH (a:Drug), (b:Drug) RETURN COUNT(*)`))
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	_, err = p.ExecuteParallelContextWithStats(ctx, 1, &st)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The full cross product scans ~n*n vertices; cancellation must stop
	// the traversal within one checkpoint interval of the cancel call.
	if limit := int64(4*cancelMask + n); st.VerticesScanned > limit {
		t.Errorf("scanned %d vertices after cancel, want <= %d (~one checkpoint interval)", st.VerticesScanned, limit)
	}
	// The plan (and its pooled machine) must stay usable afterwards.
	res, err := p.ExecuteParallelContextWithStats(context.Background(), 1, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != n*n {
		t.Errorf("post-cancel run: rows = %v, want one COUNT(*) row of %d", rowStrings(res), n*n)
	}
}

func TestExecuteContextDeadline(t *testing.T) {
	const n = 400
	mem := buildWideGraph(t, n)
	p, err := Prepare(mem, cypher.MustParse(`MATCH (a:Drug), (b:Drug) RETURN COUNT(*)`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	if _, err := p.ExecuteParallelContextWithStats(ctx, 1, &Stats{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}
