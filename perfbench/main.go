// Command perfbench is the repository's serving benchmark. For one
// workload it generates a dataset and a Zipf query mix from a seed,
// optimizes the schema with PGSG, loads the OPT store, serves it through
// internal/server, checks every distinct query's answer against the
// direct-schema (DIR) answer, and then drives a closed loop of clients
// over loopback HTTP. With -trace 0 it prints the end-to-end metrics;
// with -trace 1 it adds a traced run that times the calls into each
// layer and prints the per-layer metrics. The last line of its output is
// one JSON object with the metrics of the chosen mode.
//
//	go run . -workload med-opt-mem -workload-seed 2021 -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clients is the closed loop's client count: nproc of the 2-vCPU machine
// the workloads were sized on.
const clients = 2

// Workload seeds: the default, and the held-out seed on which a later
// claim must also hold.
const (
	defaultSeed = 2021
	heldOutSeed = 4242
)

// config is one invocation.
type config struct {
	workload string
	// seed derives the dataset, the query mix and, with runSeed, each
	// client's draw sequence.
	seed int64
	// runSeed varies the draw sequences between runs of one workload
	// instance.
	runSeed int64
	seconds float64
	trace   bool
	// setups, when positive, replaces the workload's set-up count
	// (tests only).
	setups   int
	dataDir  string
	traceDir string
	commit   string
	// corrupt, when non-empty, replaces the DIR answer of this query
	// text with a wrong one before the answer check (tests only).
	corrupt string
}

// metric is one named, measured value.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // samples or base, printed beside the value
}

// report is what one invocation prints.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric // the metrics of the chosen mode, in print order
	extra     []metric // metrics printed but not in the result line
	// wrong lists the distinct queries whose answer failed the check.
	wrong []string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "med-opt-mem", "workload: med-opt-mem, fin-opt-disk-tight, med-opt-disk-ingest, or all of them in turn")
	flag.Int64Var(&cfg.seed, "workload-seed", defaultSeed, fmt.Sprintf("workload seed for the dataset, the mix and the client draws (held-out seed: %d)", heldOutSeed))
	flag.Int64Var(&cfg.runSeed, "seed", 1, "run seed: varies the client draw sequences over the same dataset and mix")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds of closed-loop traffic")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&cfg.dataDir, "data-dir", ".bench_build/data", "directory for diskstore files (removed after the run)")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision recorded with the result")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, sp := range specs {
			names = append(names, sp.name)
		}
	}
	for _, name := range names {
		cfg.workload = name
		rep, err := run(cfg, os.Stdout)
		if err == nil {
			err = printResult(os.Stdout, rep)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// run executes one invocation, printing progress and every metric to w.
func run(cfg config, w io.Writer) (*report, error) {
	sp, err := specByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	fmt.Fprintf(w, "perfbench workload=%s workload_seed=%d seed=%d seconds=%g trace=%v loop=closed clients=%d\n",
		sp.name, cfg.seed, cfg.runSeed, cfg.seconds, cfg.trace, clients)
	fmt.Fprintf(w, "machine nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.commit)

	f, setups, err := setUpRepeated(sp, cfg)
	if err != nil {
		return nil, err
	}
	defer f.close()
	fmt.Fprintf(w, "store backend=%s vertices=%d edges=%d cache_pages=%d\n",
		sp.backend, f.graph.NumVertices(), f.graph.NumEdges(), sp.cachePages)

	exps, draws, err := referenceAnswers(f)
	if err != nil {
		return nil, err
	}
	if cfg.corrupt != "" {
		for _, e := range exps {
			if e.text == cfg.corrupt {
				e.answer += "\ncorrupted"
			}
		}
	}
	client := newClient()
	defer client.CloseIdleConnections()
	base := "http://" + f.addr
	if err := verifyThroughServer(client, base, exps); err != nil {
		return nil, err
	}
	wrongShare := reportVerification(w, exps, draws)
	unexpected, fixed := judgeAnswers(sp, cfg.seed, exps)
	for _, text := range unexpected {
		fmt.Fprintf(w, "  unexpected wrong answer: %s\n", text)
	}
	for _, text := range fixed {
		fmt.Fprintf(w, "  known wrong answer now correct: %s\n", text)
	}
	for _, e := range exps {
		e.answer = "" // the reference rows are not needed past the check
	}

	// The loop times only queries whose answer verified: a wrong answer
	// has been counted and listed above, and timing it would measure
	// nothing a user can rely on.
	timed := verifiedDraws(exps, draws)
	if len(timed) == 0 {
		return nil, fmt.Errorf("no query of the mix returned the DIR answer")
	}
	l := &loop{client: client, base: base, exps: exps, draws: timed,
		mutateFrac: sp.mutateFrac, seed: cfg.seed, runSeed: cfg.runSeed}
	var rep *report
	if cfg.trace {
		rep, err = tracedRun(cfg, w, f, l, draws, setups)
	} else {
		rep, err = measure(cfg, w, f, l, wrongShare, setups)
	}
	if err != nil {
		return nil, err
	}
	for _, e := range exps {
		if !e.ok {
			rep.wrong = append(rep.wrong, e.text)
		}
	}
	rep.correct = rep.correct && len(unexpected) == 0
	return rep, nil
}

// measure is the untraced run: it reports the end-to-end metrics.
// wrongShare is the share of the mix's draws whose answer failed the
// check.
func measure(cfg config, w io.Writer, f *fixture, l *loop, wrongShare float64, setups []setupTimes) (*report, error) {
	sp := f.spec

	// The program's memory: the store, the server and the mapping, once
	// the benchmark has dropped the generated dataset and reference rows.
	f.data = nil
	heap := liveHeapMB()
	store := storeMB(f)

	warm := time.Duration(cfg.seconds * float64(time.Second) / 10)
	l.run(warm, 0)
	steal := readCPUStat()
	cpu0, err := processCPU()
	if err != nil {
		return nil, err
	}
	res := l.run(time.Duration(cfg.seconds*float64(time.Second)), 1)
	cpu1, err := processCPU()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "machine steal_frac=%.4f during the measured loop\n", steal.stealSince())

	lats := res.readLat
	rep := &report{correct: res.changed == 0, attempted: res.attempted, failed: res.failed}
	rep.metrics = append(rep.metrics,
		metric{"setup_s", median(setups, setupTimes.cpuTime).Seconds(), "s", fmt.Sprintf("process CPU, median of %d set-ups", len(setups))},
		metric{"read_qps", medianRate(res.readAt, res.elapsed), "1/s",
			fmt.Sprintf("median of %d windows; %d verified reads in %.2fs", rateWindows, res.readOK, res.elapsed.Seconds())},
		metric{"read_p50_ms", percentileMs(lats, 0.50), "ms", fmt.Sprintf("n=%d", len(lats))},
		metric{"cpu_us_per_op", float64((cpu1 - cpu0).Nanoseconds()) / 1e3 / float64(max(res.attempted, 1)), "us",
			fmt.Sprintf("process CPU (server and clients) over %d operations", res.attempted)},
		metric{"heap_mb", heap, "MB", "live heap after set-up and GC"},
	)
	rep.extra = append(rep.extra,
		metric{"setup_wall_s", median(setups, setupTimes.total).Seconds(), "s", fmt.Sprintf("wall clock, median of %d set-ups", len(setups))},
		metric{"read_p99_ms", percentileMs(lats, 0.99), "ms", fmt.Sprintf("n=%d", len(lats))},
		metric{"fail_frac", wrongShare*(1-sp.mutateFrac) + float64(res.failed)/float64(max(res.attempted, 1)), "ratio",
			fmt.Sprintf("wrong answers %.4f of the mix's draws, at the read share; %d of %d timed operations failed", wrongShare, res.failed, res.attempted)})
	if sp.mutateFrac > 0 {
		rep.extra = append(rep.extra,
			metric{"write_p50_ms", percentileMs(res.writeLat, 0.50), "ms", fmt.Sprintf("n=%d", len(res.writeLat))},
			metric{"write_p99_ms", percentileMs(res.writeLat, 0.99), "ms", fmt.Sprintf("n=%d", len(res.writeLat))})
	}
	if f.disk != nil {
		rep.extra = append(rep.extra, metric{"store_mb", store, "MB", "on disk after load"})
	}
	printMetrics(w, rep)
	return rep, nil
}

// setUpRepeated sets the workload up sp.setups times and keeps the last
// fixture; the others are torn down. Each set-up starts from a collected
// heap, so one set-up's garbage is not charged to the next.
func setUpRepeated(sp spec, cfg config) (*fixture, []setupTimes, error) {
	n := sp.setups
	if cfg.setups > 0 {
		n = cfg.setups
	}
	var times []setupTimes
	var f *fixture
	for i := 0; i < n; i++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		cpu0, err := processCPU()
		if err != nil {
			return nil, nil, err
		}
		if f, err = setUp(sp, cfg.seed, cfg.dataDir); err != nil {
			return nil, nil, err
		}
		cpu1, err := processCPU()
		if err != nil {
			f.close()
			return nil, nil, err
		}
		f.times.cpu = cpu1 - cpu0
		times = append(times, f.times)
	}
	return f, times, nil
}

// reportVerification prints the answer check's outcome, listing every
// query that failed it by its text, and returns the share of the mix's
// draws that failed.
func reportVerification(w io.Writer, exps []*expected, draws []int) float64 {
	perExp := make([]int, len(exps))
	for _, d := range draws {
		perExp[d]++
	}
	bad, badDraws := 0, 0
	for i, e := range exps {
		if !e.ok {
			bad++
			badDraws += perExp[i]
		}
	}
	fmt.Fprintf(w, "answer check: %d distinct queries of %d draws; %d fail (%d draws)\n",
		len(exps), len(draws), bad, badDraws)
	for i, e := range exps {
		if !e.ok {
			fmt.Fprintf(w, "  wrong answer (%d draws): %s\n", perExp[i], e.text)
		}
	}
	return float64(badDraws) / float64(max(len(draws), 1))
}

// verifiedDraws is the mix without the draws whose answer failed the
// check.
func verifiedDraws(exps []*expected, draws []int) []int {
	var out []int
	for _, d := range draws {
		if exps[d].ok {
			out = append(out, d)
		}
	}
	return out
}

// cpuStat is the machine-wide CPU time split from /proc/stat; the share
// stolen by the hypervisor explains run-to-run noise on shared hosts.
type cpuStat struct{ total, steal int64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, v := range fields[1:9] {
		n, _ := strconv.ParseInt(v, 10, 64)
		st.total += n
		if i == 7 {
			st.steal = n
		}
	}
	return st
}

// stealSince is the share of CPU time stolen since s was read.
func (s cpuStat) stealSince() float64 {
	now := readCPUStat()
	if now.total <= s.total {
		return 0
	}
	return float64(now.steal-s.steal) / float64(now.total-s.total)
}

// processCPU is the user plus system CPU time the process has used.
// Unlike wall time it excludes time the hypervisor gave to other guests.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// liveHeapMB is the Go heap in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func storeMB(f *fixture) float64 {
	n, err := f.storeBytes()
	if err != nil {
		return 0
	}
	return float64(n) / (1 << 20)
}

// median of one set-up component over the set-ups.
func median(ts []setupTimes, part func(setupTimes) time.Duration) time.Duration {
	ds := make([]time.Duration, len(ts))
	for i, t := range ts {
		ds[i] = part(t)
	}
	return medianDur(ds)
}

// medianDur is the median of ds; it sorts ds in place.
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	if len(ds)%2 == 1 {
		return ds[len(ds)/2]
	}
	return (ds[len(ds)/2-1] + ds[len(ds)/2]) / 2
}

// printMetrics writes every metric by name, with its unit.
func printMetrics(w io.Writer, rep *report) {
	for _, ms := range [][]metric{rep.metrics, rep.extra} {
		for _, m := range ms {
			fmt.Fprintf(w, "%-36s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		}
	}
}

// printResult writes the result line: the last line of the output.
func printResult(w io.Writer, rep *report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range rep.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
