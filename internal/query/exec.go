package query

import (
	"context"
	"sort"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/storage"
)

// Stats counts the physical work a query performed; the benchmark harness
// reports these alongside latency to show why optimized schemas win.
type Stats struct {
	VerticesScanned int64 // label-scan candidates examined
	EdgesTraversed  int64 // adjacency expansions followed
	PropsRead       int64 // property fetches
	RowsEmitted     int64 // result rows produced
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.VerticesScanned += other.VerticesScanned
	s.EdgesTraversed += other.EdgesTraversed
	s.PropsRead += other.PropsRead
	s.RowsEmitted += other.RowsEmitted
}

// Result is a materialized query result. Rows is freshly allocated per
// execution; Columns is shared with the Prepared plan that produced it and
// must not be mutated.
type Result struct {
	Columns []string
	Rows    [][]graph.Value
}

// Run executes the query against the graph. One-shot convenience wrapper:
// it compiles the query with Prepare and executes the plan once, serially.
// Callers that run the same query repeatedly should Prepare once and
// execute the plan many times.
func Run(g storage.Graph, q *cypher.Query) (*Result, error) {
	p, err := Prepare(g, q)
	if err != nil {
		return nil, err
	}
	var st Stats
	return p.ExecuteParallelContextWithStats(context.Background(), 1, &st)
}

// appendRowKey appends the canonical composite key of a row to dst.
func appendRowKey(dst []byte, row []graph.Value) []byte {
	for _, v := range row {
		dst = v.AppendKey(dst)
		dst = append(dst, 0x1f)
	}
	return dst
}

// SortRowsForComparison orders rows canonically; tests use it to compare
// result sets that may be produced in different orders by different
// schemas or backends. Keys are materialized once up front rather than
// rebuilt inside the comparator.
func SortRowsForComparison(rows [][]graph.Value) {
	keys := make([]string, len(rows))
	var buf []byte
	for i, row := range rows {
		buf = appendRowKey(buf[:0], row)
		keys[i] = string(buf)
	}
	sort.Sort(&rowSorter{rows: rows, keys: keys})
}

type rowSorter struct {
	rows [][]graph.Value
	keys []string
}

func (s *rowSorter) Len() int           { return len(s.rows) }
func (s *rowSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *rowSorter) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
