package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/workload"
)

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// promises for each mode.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func shortConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: defaultSeed, runSeed: 1, seconds: 1, trace: trace,
		setups: 1, dataDir: t.TempDir(), traceDir: t.TempDir(), commit: "test"}
}

// runShort runs one short invocation and returns its output and result.
func runShort(t *testing.T, cfg config) (string, *report) {
	t.Helper()
	var out bytes.Buffer
	rep, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if err := printResult(&out, rep); err != nil {
		t.Fatal(err)
	}
	return out.String(), rep
}

// assertPrinted checks that every metric prints on a line of its own
// with its unit, and that the result line carries exactly the mode's
// metrics.
func assertPrinted(t *testing.T, out string, want map[string]string, extra map[string]string) {
	t.Helper()
	for name, unit := range extra {
		want[name] = unit
	}
	for name, unit := range want {
		line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `\s+\S+\s+` + regexp.QuoteMeta(unit) + `\s`)
		if !line.MatchString(out) {
			t.Errorf("metric %s [%s] not printed", name, unit)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if res.Attempted < 1 {
		t.Errorf("attempted = %d", res.Attempted)
	}
	for name := range extra {
		delete(want, name)
	}
	var got, exp []string
	for name, m := range res.Metrics {
		got = append(got, name+"/"+m["unit"].(string))
	}
	for name, unit := range want {
		exp = append(exp, name+"/"+unit)
	}
	sort.Strings(got)
	sort.Strings(exp)
	if strings.Join(got, " ") != strings.Join(exp, " ") {
		t.Errorf("result metrics\n got %v\nwant %v", got, exp)
	}
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			extra := map[string]string{"setup_wall_s": "s", "read_p99_ms": "ms", "fail_frac": "ratio"}
			if sp.mutateFrac > 0 {
				extra["write_p50_ms"], extra["write_p99_ms"] = "ms", "ms"
			}
			if sp.backend == "diskstore" {
				extra["store_mb"] = "MB"
			}
			out, rep := runShort(t, shortConfig(t, sp.name, false))
			assertPrinted(t, out, copyMap(endToEnd), extra)
			if !rep.correct {
				t.Errorf("an unexpected wrong answer:\n%s", out)
			}
			if rep.failed != 0 {
				t.Errorf("%d of %d timed operations failed:\n%s", rep.failed, rep.attempted, out)
			}
			out, _ = runShort(t, shortConfig(t, sp.name, true))
			assertPrinted(t, out, copyMap(perLayer), nil)
		})
	}
}

func copyMap(m map[string]string) map[string]string {
	c := make(map[string]string, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// failFrac returns the report's fail_frac.
func failFrac(t *testing.T, rep *report) float64 {
	t.Helper()
	for _, m := range rep.extra {
		if m.name == "fail_frac" {
			return m.value
		}
	}
	t.Fatal("no fail_frac")
	return 0
}

func TestCorruptedExpectedAnswerRaisesFailFrac(t *testing.T) {
	_, clean := runShort(t, shortConfig(t, "med-opt-mem", false))
	// Corrupt the most frequent query that verifies.
	wl, err := workload.Generate(datagen.MED(), mixSize, workload.Zipf, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]bool{}
	for _, q := range clean.wrong {
		bad[q] = true
	}
	freq := map[string]int{}
	target := ""
	for _, q := range wl.Queries {
		freq[q.Text]++
		if !bad[q.Text] && freq[q.Text] > freq[target] {
			target = q.Text
		}
	}
	cfg := shortConfig(t, "med-opt-mem", false)
	cfg.corrupt = target
	_, corrupted := runShort(t, cfg)
	if got, base := failFrac(t, corrupted), failFrac(t, clean); got <= base {
		t.Errorf("fail_frac %.4f with %q corrupted, want above %.4f", got, target, base)
	}
	found := false
	for _, q := range corrupted.wrong {
		found = found || q == target
	}
	if !found {
		t.Errorf("corrupted query %q not listed as wrong", target)
	}
	if corrupted.correct {
		t.Errorf("a wrong answer outside the pinned set must make the run incorrect")
	}
	if !clean.correct {
		t.Errorf("the clean run fails queries outside the pinned set: %q", clean.wrong)
	}
}

func TestCountRows(t *testing.T) {
	for body, want := range map[string]int{
		`{"query":"q","columns":["a"],"rows":[],"stats":{}}`:                   0,
		`{"query":"q","columns":["a"],"rows":[["x]"],[1],[[2,3]]],"stats":{}}`: 3,
		`{"query":"\"rows\":[","columns":["a"],"rows":[["a\"]["]],"stats":{}}`: 1,
	} {
		if got, ok := countRows([]byte(body)); !ok || got != want {
			t.Errorf("countRows(%s) = %d, %v; want %d", body, got, ok, want)
		}
	}
}

func TestJudgeAnswers(t *testing.T) {
	med, err := specByName("med-opt-mem")
	if err != nil {
		t.Fatal(err)
	}
	pinned := knownWrong[defaultSeed]["MED"]
	exps := []*expected{
		{text: pinned[0], ok: false},
		{text: pinned[1], ok: true},
		{text: "MATCH (n:Patient) RETURN count(n)", ok: false},
		{text: "MATCH (n:Disease) RETURN count(n)", ok: true},
	}
	unexpected, fixed := judgeAnswers(med, defaultSeed, exps)
	if len(unexpected) != 1 || unexpected[0] != exps[2].text {
		t.Errorf("unexpected = %q, want only %q", unexpected, exps[2].text)
	}
	if len(fixed) != 1 || fixed[0] != pinned[1] {
		t.Errorf("fixed = %q, want only %q", fixed, pinned[1])
	}
	// A workload seed without a pin expects no failures.
	if unexpected, _ := judgeAnswers(med, 7, exps); len(unexpected) != 2 {
		t.Errorf("unpinned seed: unexpected = %q, want both failing queries", unexpected)
	}
}

func TestMedianRate(t *testing.T) {
	// 10 events in each of 20 one-second windows, except a stall: two
	// empty windows. The median ignores the stall.
	var at []time.Duration
	for w := 0; w < rateWindows; w++ {
		if w == 3 || w == 4 {
			continue
		}
		for i := 0; i < 10; i++ {
			at = append(at, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	if got := medianRate(at, rateWindows*time.Second); got != 10 {
		t.Errorf("medianRate = %g, want 10", got)
	}
}
