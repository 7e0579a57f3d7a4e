package main

import "fmt"

// spec describes one workload: the dataset and store it serves and the
// traffic the closed loop sends it.
type spec struct {
	name       string
	dataset    string // "MED" or "FIN"
	card       int    // datagen BaseCard
	backend    string // "memstore" or "diskstore"
	cachePages int    // diskstore page cache (8 KiB pages)
	// mutateFrac is the share of requests that are POST /mutate batches.
	mutateFrac float64
	// autoCompact starts a background fold at this many delta items.
	autoCompact int64
	// setups is how many times a run sets the workload up; setup_s is
	// the median.
	setups int
}

// specs are the benchmark's workloads; README.md records why each exists.
var specs = []spec{
	{
		// Everything in memory: the HTTP handler, cypher, rewrite, plan
		// cache and executor dominate a request.
		name: "med-opt-mem", dataset: "MED", card: 120, backend: "memstore",
		setups: 75,
	},
	{
		// A 64-page cache over a store ~26x larger: pager misses, page
		// reads and adjacency decoding dominate a request.
		name: "fin-opt-disk-tight", dataset: "FIN", card: 120, backend: "diskstore",
		cachePages: 64, setups: 7,
	},
	{
		// The cache holds the whole store; one request in five is a
		// durable write, so WAL fsyncs, delta merges and folds show.
		name: "med-opt-disk-ingest", dataset: "MED", card: 120, backend: "diskstore",
		cachePages: 512, mutateFrac: 0.2, autoCompact: 2000, setups: 50,
	},
}

// specByName finds a workload.
func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// knownWrong pins, per workload seed and dataset, the distinct queries of
// the mix whose answer through the server differs from the DIR answer
// today: each returns the attr18 of the wrong concept after PGSG merges
// two concepts that both carry an attr18 property. A failing query
// outside this set makes a run incorrect; a pinned query that passes is
// reported as fixed. A workload seed without a pin has no expected
// failures.
var knownWrong = map[int64]map[string][]string{
	defaultSeed: {
		"MED": {
			"MATCH (x:Disease)-[:hasTreatment]->(p:Treatment)<-[:isA]-(c:Prescription) RETURN c.attr18",
			"MATCH (x:Guideline)-[:hasTreatment]->(p:Treatment)<-[:isA]-(c:Procedure) RETURN c.attr18",
			"MATCH (x:Guideline)-[:hasTreatment]->(p:Treatment)<-[:isA]-(c:Prescription) RETURN c.attr18",
			"MATCH (a:Prescription)-[:paired]->(b:Dosage) RETURN a.attr18, b.attr46",
			"MATCH (s:Patient)-[:hasPrescription]->(d:Prescription) RETURN d.attr18",
			"MATCH (s:BodySite)-[:hasProcedure]->(d:Procedure) RETURN d.attr18",
		},
	},
	heldOutSeed: {
		"MED": {
			"MATCH (x:Disease)-[:hasTreatment]->(p:Treatment)<-[:isA]-(c:Procedure) RETURN c.attr18",
			"MATCH (x:Guideline)-[:hasTreatment]->(p:Treatment)<-[:isA]-(c:Procedure) RETURN c.attr18",
			"MATCH (x:Guideline)-[:hasTreatment]->(p:Treatment)<-[:isA]-(c:Prescription) RETURN c.attr18",
			"MATCH (a:Prescription)-[:paired]->(b:Dosage) RETURN a.attr18, b.attr46",
			"MATCH (s:Patient)-[:hasPrescription]->(d:Prescription) RETURN d.attr18",
			"MATCH (s:Physician)-[:hasPrescription]->(d:Prescription) RETURN d.attr18",
			"MATCH (s:BodySite)-[:hasProcedure]->(d:Procedure) RETURN d.attr18",
		},
	},
}

// judgeAnswers splits the answer check's outcome against the pinned
// failures: unexpected lists failing queries outside the pin, fixed lists
// pinned queries of the mix that now pass.
func judgeAnswers(sp spec, seed int64, exps []*expected) (unexpected, fixed []string) {
	pinned := map[string]bool{}
	for _, text := range knownWrong[seed][sp.dataset] {
		pinned[text] = true
	}
	for _, e := range exps {
		switch {
		case !e.ok && !pinned[e.text]:
			unexpected = append(unexpected, e.text)
		case e.ok && pinned[e.text]:
			fixed = append(fixed, e.text)
		}
	}
	return unexpected, fixed
}
