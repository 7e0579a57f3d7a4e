package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cypher"
	"repro/internal/graph"
	"repro/internal/loader"
	"repro/internal/query"
	"repro/internal/storage/memstore"
	"repro/internal/workload"
)

// expected is the verified answer of one distinct query of the mix.
type expected struct {
	index int // position among the mix's distinct queries
	text  string
	kind  workload.Kind
	// answer is the DIR answer in comparable form: the row total for
	// aggregates, the sorted canonical row multiset otherwise.
	answer string
	// ok reports that the server's answer matched; a query that failed
	// verification counts in fail_frac by its draws and is left out of
	// the timed loop.
	ok bool
	// rows is the server's verified row count, checked on every timed
	// response.
	rows int
}

// answerKey reduces rows of canonical cells to the form the rewrite
// contract compares (the rules of the repository's end-to-end
// equivalence test): aggregates by total, everything else by exact row
// multiset.
func answerKey(kind workload.Kind, rows [][]string) string {
	if kind == workload.Aggregation {
		var total int64
		for _, row := range rows {
			for _, c := range row {
				if n, err := strconv.ParseInt(c, 10, 64); err == nil {
					total += n
				}
			}
		}
		return "total=" + strconv.FormatInt(total, 10)
	}
	lines := make([]string, len(rows))
	for i, row := range rows {
		lines[i] = strings.Join(row, ",")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// canonValue renders an executor value the way canonJSON renders its
// JSON encoding, so the two sides compare as strings.
func canonValue(v graph.Value) string {
	switch v.Kind() {
	case graph.KindString:
		return strconv.Quote(v.Str())
	case graph.KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case graph.KindFloat:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return "null"
		}
		return canonNumber(strconv.FormatFloat(f, 'g', -1, 64))
	case graph.KindBool:
		return strconv.FormatBool(v.Bool())
	case graph.KindList:
		parts := make([]string, len(v.List()))
		for i, e := range v.List() {
			parts[i] = canonValue(e)
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	return "null"
}

// canonJSON renders a JSON value decoded with UseNumber.
func canonJSON(v any) string {
	switch x := v.(type) {
	case string:
		return strconv.Quote(x)
	case json.Number:
		return canonNumber(string(x))
	case bool:
		return strconv.FormatBool(x)
	case []any:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = canonJSON(e)
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	return "null"
}

// canonNumber gives integers and floats one spelling each.
func canonNumber(s string) string {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return strconv.FormatInt(n, 10)
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return s
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// referenceAnswers runs every distinct query of the mix on a DIR
// memstore loaded from the same dataset, and returns them in first-draw
// order with an index from each draw to its distinct query.
func referenceAnswers(f *fixture) ([]*expected, []int, error) {
	dir := memstore.New()
	if _, _, err := loader.Load(dir, f.data, nil); err != nil {
		return nil, nil, err
	}
	var exps []*expected
	byText := map[string]int{}
	draws := make([]int, len(f.mix.Queries))
	for i, q := range f.mix.Queries {
		idx, seen := byText[q.Text]
		if !seen {
			parsed, err := cypher.Parse(q.Text)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", q.Text, err)
			}
			res, err := query.Run(dir, parsed)
			if err != nil {
				return nil, nil, fmt.Errorf("DIR %s: %w", q.Text, err)
			}
			rows := make([][]string, len(res.Rows))
			for r, row := range res.Rows {
				rows[r] = make([]string, len(row))
				for c, v := range row {
					rows[r][c] = canonValue(v)
				}
			}
			idx = len(exps)
			byText[q.Text] = idx
			exps = append(exps, &expected{index: idx, text: q.Text, kind: q.Kind, answer: answerKey(q.Kind, rows)})
		}
		draws[i] = idx
	}
	return exps, draws, nil
}

// queryResponse is the part of a POST /query body the check reads.
type queryResponse struct {
	Rows [][]any `json:"rows"`
}

// verifyThroughServer sends every distinct query through the server once
// and compares its answer with the DIR answer. It also fills the plan
// cache, so timing starts warm.
func verifyThroughServer(c *http.Client, base string, exps []*expected) error {
	for _, e := range exps {
		resp, err := c.Post(base+"/query", "text/plain", strings.NewReader(e.text))
		if err != nil {
			return err
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			e.ok = false
			continue
		}
		var qr queryResponse
		dec := json.NewDecoder(&body)
		dec.UseNumber()
		if err := dec.Decode(&qr); err != nil {
			return fmt.Errorf("decode answer of %s: %w", e.text, err)
		}
		rows := make([][]string, len(qr.Rows))
		for r, row := range qr.Rows {
			rows[r] = make([]string, len(row))
			for c, v := range row {
				rows[r][c] = canonJSON(v)
			}
		}
		e.ok = answerKey(e.kind, rows) == e.answer
		e.rows = len(qr.Rows)
	}
	return nil
}

// countRows counts the rows of a POST /query body without decoding it:
// the top-level arrays inside its "rows" field.
func countRows(body []byte) (int, bool) {
	const field = `"rows":[`
	i := bytes.Index(body, []byte(field))
	if i < 0 {
		return 0, false
	}
	depth, n, inStr := 0, 0, false
	for i += len(field); i < len(body); i++ {
		c := body[i]
		if inStr {
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '[':
			if depth == 0 {
				n++
			}
			depth++
		case ']':
			if depth == 0 {
				return n, true
			}
			depth--
		}
	}
	return 0, false
}
