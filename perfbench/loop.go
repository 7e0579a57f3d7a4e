package main

import (
	"bytes"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// mutateBody is the write the ingest workload mixes in: one new vertex
// wired to vertex 0 through a batch-relative reference. Its label and
// edge type appear in no query, so it never changes a verified answer.
const mutateBody = `{"vertices":[{"labels":["Noise"],"props":{"n":1}}],"edges":[{"src":-1,"dst":0,"type":"noise"}]}`

// loop is a closed loop: each client sends its next request only after
// the previous reply arrived.
type loop struct {
	client     *http.Client
	base       string
	exps       []*expected
	draws      []int // timed draws (the mix's verified ones) -> index into exps
	mutateFrac float64
	seed       int64 // workload seed
	runSeed    int64
	// after, when set, runs in the client goroutine after every answered
	// read, outside the timed request (the traced run's replay).
	after func(client int, e *expected, start, end time.Time)
}

// loopResult aggregates one run of the loop.
type loopResult struct {
	elapsed   time.Duration
	readLat   []time.Duration // every answered (2xx) read
	writeLat  []time.Duration // every acknowledged write
	attempted int
	readOK    int // reads whose answer is verified
	// readAt is when each verified read was answered, from the loop's
	// start.
	readAt []time.Duration
	failed int // transport errors, non-2xx, changed row counts
	// changed counts reads of a verified query whose reply lost the
	// verified row count: a wrong answer the check did not expect.
	changed   int
	respBytes int64
}

func (r *loopResult) merge(o *loopResult) {
	r.readLat = append(r.readLat, o.readLat...)
	r.writeLat = append(r.writeLat, o.writeLat...)
	r.attempted += o.attempted
	r.readOK += o.readOK
	r.readAt = append(r.readAt, o.readAt...)
	r.failed += o.failed
	r.changed += o.changed
	r.respBytes += o.respBytes
}

// clientSeed derives a client's draw sequence from the workload and run
// seeds and the run's phase, so every phase and client has its own.
func clientSeed(seed, runSeed int64, phase, client int) int64 {
	return seed*1_000_003 + runSeed*7_919 + int64(phase)*1009 + int64(client) + 1
}

// run drives the loop for d and returns the merged result.
func (l *loop) run(d time.Duration, phase int) *loopResult {
	results := make([]*loopResult, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = l.client1(c, rand.New(rand.NewSource(clientSeed(l.seed, l.runSeed, phase, c))), start, deadline)
		}(c)
	}
	wg.Wait()
	total := &loopResult{elapsed: time.Since(start)}
	for _, r := range results {
		total.merge(r)
	}
	return total
}

// client1 is one closed-loop client. It reads the timed draws in seeded
// shuffled passes, each draw once per pass, so every stretch of traffic
// keeps the mix's Zipf frequencies.
func (l *loop) client1(c int, rng *rand.Rand, origin, deadline time.Time) *loopResult {
	res := &loopResult{}
	var body bytes.Buffer
	var order []int
	for time.Now().Before(deadline) {
		res.attempted++
		if l.mutateFrac > 0 && rng.Float64() < l.mutateFrac {
			start := time.Now()
			status, err := l.post(&body, "/mutate", "application/json", mutateBody)
			lat := time.Since(start)
			if err != nil || status/100 != 2 {
				res.failed++
				continue
			}
			res.writeLat = append(res.writeLat, lat)
			continue
		}
		if len(order) == 0 {
			order = rng.Perm(len(l.draws))
		}
		e := l.exps[l.draws[order[0]]]
		order = order[1:]
		start := time.Now()
		status, err := l.post(&body, "/query", "text/plain", e.text)
		end := time.Now()
		if err != nil || status != http.StatusOK {
			res.failed++
			continue
		}
		res.respBytes += int64(body.Len())
		n, parsed := countRows(body.Bytes())
		res.readLat = append(res.readLat, end.Sub(start))
		if parsed && n == e.rows {
			res.readOK++
			res.readAt = append(res.readAt, end.Sub(origin))
		} else {
			res.changed++
			res.failed++
		}
		if l.after != nil {
			l.after(c, e, start, end)
		}
	}
	return res
}

// post sends one request and reads the whole reply into body.
func (l *loop) post(body *bytes.Buffer, path, ctype, payload string) (int, error) {
	resp, err := l.client.Post(l.base+path, ctype, strings.NewReader(payload))
	if err != nil {
		return 0, err
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// newClient keeps one idle connection per client, so the loop measures
// requests, not TCP handshakes.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// rateWindows is how many equal windows of a run medianRate takes the
// median over, so that a stall of a few seconds, such as a slow fsync on
// a shared disk, moves it less than a mean over the whole run would.
const rateWindows = 20

// medianRate is the median over rateWindows equal windows of elapsed of
// the events per second; at are the events' offsets from the start.
func medianRate(at []time.Duration, elapsed time.Duration) float64 {
	w := elapsed / rateWindows
	if w <= 0 {
		return 0
	}
	counts := make([]float64, rateWindows)
	for _, t := range at {
		counts[min(int(t/w), rateWindows-1)]++
	}
	sort.Float64s(counts)
	return (counts[rateWindows/2-1] + counts[rateWindows/2]) / 2 / w.Seconds()
}

// percentileMs is the nearest-rank percentile of ds in milliseconds; it
// sorts ds in place.
func percentileMs(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := min(max(int(math.Ceil(p*float64(len(ds))))-1, 0), len(ds)-1)
	return float64(ds[k]) / float64(time.Millisecond)
}
