package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"probablecause/internal/obs"
)

// requestTimeout bounds one request; a request that takes longer failed.
const requestTimeout = 10 * time.Second

// newConn returns a client that holds at most one connection, so the
// number of clients is the number of connections the benchmark opens.
func newConn() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

func verdictName(match bool, name string) string {
	if !match {
		return ""
	}
	return name
}

// verdictJSON is the part of pcserved's verdict the answer key checks.
type verdictJSON struct {
	Match bool   `json:"match"`
	Name  string `json:"name"`
}

// post sends one JSON body. A transport error, a timeout and a non-2xx
// status are all failures.
func post(c *http.Client, url string, body []byte, traceHeader string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceHeader != "" {
		req.Header.Set(obs.TraceHeader, traceHeader)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// sample is one completed identify request.
type sample struct {
	lat     time.Duration // from due (open loop) or send (closed loop) to reply
	late    time.Duration // how late the generator sent it
	hit     bool          // the answer key expects a match
	failed  bool
	wrong   string // non-empty: the verdict contradicts the answer key
	traceID string
}

// promotions records when the enrollment stream saw each device promoted,
// so stream-device queries are checked against what the server had
// acknowledged before they were sent.
type promotions struct {
	at []atomic.Int64 // unix nanos of the promoting ack; 0 = not yet
}

func (p *promotions) before(d int, t time.Time) bool {
	if p == nil || d >= len(p.at) {
		return false
	}
	ns := p.at[d].Load()
	return ns != 0 && ns <= t.UnixNano()
}

// check compares a reply with the answer key.
func check(q *Query, body []byte, sent time.Time, prom *promotions) (wrong string) {
	var v verdictJSON
	if err := json.Unmarshal(body, &v); err != nil {
		return fmt.Sprintf("undecodable verdict %q", body)
	}
	got := verdictName(v.Match, v.Name)
	switch {
	case got == q.Want:
	case q.Stream >= 0 && got == "" && !prom.before(q.Stream, sent):
		// The device's promotion was not yet acknowledged when the query
		// left; the server may not have it yet.
	default:
		return fmt.Sprintf("verdict %q, answer key %q", got, q.Want)
	}
	return ""
}

// tracer hands out the benchmark's own trace ids for X-PC-Trace, so the
// server-side span trees join the benchmark's request records.
type tracer struct{ next atomic.Uint64 }

func (t *tracer) header() (string, string) {
	if t == nil {
		return "", ""
	}
	id := 0xbe00000000000000 | t.next.Add(1)
	return obs.FormatTraceHeader(id, 1), fmt.Sprintf("%016x", id)
}

// openLoop sends qs[i] at start+due[i] for every due time inside dur,
// spreading them over the clients, and times each from its due time.
func openLoop(clients []*http.Client, url string, qs []Query, due []float64, dur time.Duration, prom *promotions, tr *tracer) []sample {
	n := sort.SearchFloat64s(due, dur.Seconds())
	work := make(chan int, n) // sized to the number of sends: never blocks
	out := make([]sample, n)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range work {
				dueAt := start.Add(time.Duration(due[i] * float64(time.Second)))
				out[i] = send(c, url, &qs[i], dueAt, prom, tr)
			}
		}(c)
	}
	for i := 0; i < n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(due[i] * float64(time.Second)))))
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

func send(c *http.Client, url string, q *Query, dueAt time.Time, prom *promotions, tr *tracer) sample {
	hdr, id := tr.header()
	sent := time.Now()
	body, err := post(c, url+"/v1/identify", q.Body, hdr)
	s := sample{lat: time.Since(dueAt), late: sent.Sub(dueAt), hit: q.Hit(), traceID: id}
	if err != nil {
		s.failed = true
		return s
	}
	s.wrong = check(q, body, sent, prom)
	return s
}

// closedLoop runs every client back to back over qs until dur passes or
// the queries run out, and returns the samples and the elapsed time.
func closedLoop(clients []*http.Client, url string, qs []Query, dur time.Duration, prom *promotions) ([]sample, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					break
				}
				mine = append(mine, send(c, url, &qs[i], time.Now(), prom, nil))
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// enrollState is the part of the /v1/enroll ack the stream reads.
type enrollState struct {
	Promoted bool `json:"promoted"`
}

// dbStats is the part of GET /v1/db the benchmark reads.
type dbStats struct {
	Store struct {
		Segments  int    `json:"segments"`
		Watermark uint64 `json:"watermark"`
	} `json:"store"`
}

// enrollResult is what the enrollment stream observed.
type enrollResult struct {
	lat         []time.Duration // ack latency per observation, from its due time
	attempted   int
	failed      int
	wrong       []string
	promoted    int
	checkpoints int // watermark advances seen on /v1/db
	compactions int // checkpoints after which the segment count did not grow
	segmentsEnd int
}

// statsEvery is how often the enrollment stream reads /v1/db between
// observations to count checkpoints from outside.
const statsEvery = 100 * time.Millisecond

// enrollStream sends the stream devices' 99 % trials at the fixed
// observation rate, each device until its ack reports it promoted, over
// one connection, for dur. Every promotion must land on the observation
// the fingerprint.Accumulator fold predicted.
func enrollStream(c *http.Client, url string, f *Fixture, dur time.Duration, prom *promotions, tr *tracer) enrollResult {
	var r enrollResult
	var st dbStats
	if err := getJSON(c, url+"/v1/db", &st); err != nil {
		r.failed++
		r.wrong = append(r.wrong, "reading /v1/db: "+err.Error())
		return r
	}
	mark, segs := st.Store.Watermark, st.Store.Segments
	poll := func() {
		var st dbStats
		r.attempted++
		if err := getJSON(c, url+"/v1/db", &st); err != nil {
			r.failed++
			return
		}
		if st.Store.Watermark != mark {
			r.checkpoints++
			mark = st.Store.Watermark
			// A flush adds one segment; a count that did not grow means
			// the checkpoint also compacted.
			if st.Store.Segments <= segs {
				r.compactions++
			}
		}
		segs = st.Store.Segments
	}
	start := time.Now()
	lastPoll := start
	k := 0 // observations sent so far, across devices
	for d := range f.Enroll {
		for obsN := 1; ; obsN++ {
			dueAt := start.Add(time.Duration(float64(k) / enrollObsPerSecond * float64(time.Second)))
			if dueAt.Sub(start) >= dur {
				poll()
				r.segmentsEnd = segs
				return r
			}
			time.Sleep(time.Until(dueAt))
			hdr, _ := tr.header()
			r.attempted++
			body, err := post(c, url+"/v1/enroll", f.P.EnrollBody(d, obsN-1), hdr)
			k++
			if err != nil {
				r.failed++
				continue
			}
			r.lat = append(r.lat, time.Since(dueAt))
			var ack enrollState
			if err := json.Unmarshal(body, &ack); err != nil {
				r.wrong = append(r.wrong, fmt.Sprintf("undecodable enroll ack %q", body))
				continue
			}
			if time.Since(lastPoll) >= statsEvery {
				poll()
				lastPoll = time.Now()
			}
			if !ack.Promoted {
				if obsN >= f.Enroll[d].Obs {
					r.wrong = append(r.wrong, fmt.Sprintf("%s not promoted after %d observations, the fold predicts %d", f.Enroll[d].Name, obsN, f.Enroll[d].Obs))
					break
				}
				continue
			}
			if obsN != f.Enroll[d].Obs {
				r.wrong = append(r.wrong, fmt.Sprintf("%s promoted after %d observations, the fold predicts %d", f.Enroll[d].Name, obsN, f.Enroll[d].Obs))
			}
			prom.at[d].Store(time.Now().UnixNano())
			r.promoted++
			break
		}
	}
	poll()
	r.segmentsEnd = segs
	return r
}

// latencies returns the latencies of the successful samples: all of them,
// and split by the answer key into hits and misses.
func latencies(ss []sample) (all, hit, miss []time.Duration) {
	for _, s := range ss {
		if s.failed {
			continue
		}
		all = append(all, s.lat)
		if s.hit {
			hit = append(hit, s.lat)
		} else {
			miss = append(miss, s.lat)
		}
	}
	return all, hit, miss
}

// quantile returns the q-quantile of sorted values by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// ms converts durations to sorted milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
