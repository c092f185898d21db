package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"probablecause/internal/cluster"
	"probablecause/internal/fingerprint"
)

// bench runs one workload.
type bench struct {
	w   *workload
	bin string
	dir string
	dur time.Duration
	fix *Fixture
}

// setup generates the fixture, writes the seed databases and boots the
// workload's processes up to /readyz. It returns the elapsed time.
func (b *bench) setup(dir string, traced bool) (*fleet, time.Duration, error) {
	t0 := time.Now()
	// Each round's open-loop stream covers the traced run's phase, the
	// longest that uses one, with a margin.
	nOpen := int(b.w.p.Rate*b.dur.Seconds()/2*1.3) + 50
	b.fix = Generate(b.w.p, roundsPerRun, nOpen, b.w.capacityQueries+b.w.warmup)
	for attempt := 1; ; attempt++ {
		cl, err := b.boot(dir, traced)
		if err == nil || !errors.Is(err, errAddrInUse) || attempt == bootAttempts {
			return cl, time.Since(t0), err
		}
		// Every process of the failed attempt is stopped; start over on
		// fresh addresses in an empty directory.
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
	}
}

// bootAttempts bounds how often set-up starts over because a process lost
// its address to another socket between freeAddr and its listen.
const bootAttempts = 3

// boot writes the seed corpus where the topology wants it and starts the
// processes, clients' entry point last.
func (b *bench) boot(dir string, traced bool) (*fleet, error) {
	obsFlags := func(name string) []string {
		if !traced {
			return nil
		}
		return []string{"-obs.trace", filepath.Join(dir, name+".trace.json"), "-obs.report", filepath.Join(dir, name+".report.json")}
	}
	cl := &fleet{}
	start := func(name, addr string, args ...string) error {
		p, err := startPcserved(b.bin, dir, name, addr, append(args, obsFlags(name)...)...)
		if err != nil {
			return err
		}
		cl.procs = append(cl.procs, p)
		if err := p.waitReady(120 * time.Second); err != nil {
			return err
		}
		cl.url = p.url
		return nil
	}
	fail := func(err error) (*fleet, error) {
		cl.stopAll()
		return nil, err
	}
	switch b.w.topo {
	case single:
		seed := filepath.Join(dir, "seed.pcdb")
		if err := writeDB(seed, b.fix.SeedDB(nil)); err != nil {
			return nil, err
		}
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		if err := start("node", addr, "-db", seed); err != nil {
			return fail(err)
		}
	case scatter:
		addrs := make([]string, 3)
		for i := range addrs {
			var err error
			if addrs[i], err = freeAddr(); err != nil {
				return nil, err
			}
		}
		spec := fmt.Sprintf("p0=http://%s,p1=http://%s", addrs[0], addrs[1])
		pmap, err := cluster.ParsePartitions(spec)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 2; i++ {
			i := i
			seed := filepath.Join(dir, fmt.Sprintf("p%d.pcdb", i))
			if err := writeDB(seed, b.fix.SeedDB(func(name string) bool { return pmap.Owner(name) == i })); err != nil {
				return fail(err)
			}
			if err := start(fmt.Sprintf("node%d", i), addrs[i], "-db", seed,
				"-wal.dir", filepath.Join(dir, fmt.Sprintf("wal%d", i)), // the router's role probe needs /v1/repl/status
				"-partitions", spec, "-partition.self", fmt.Sprintf("p%d", i)); err != nil {
				return fail(err)
			}
		}
		if err := start("router", addrs[2], "-mode=router", "-partitions", spec); err != nil {
			return fail(err)
		}
	case tiered:
		seed := filepath.Join(dir, "seed.pcdb")
		if err := writeDB(seed, b.fix.SeedDB(nil)); err != nil {
			return nil, err
		}
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		if err := start("node", addr, "-db", seed, "-wal.dir", filepath.Join(dir, "wal"),
			"-store.backend=tiered",
			"-store.flush-entries", strconv.Itoa(tieredFlushEntries),
			"-store.compact-segments", strconv.Itoa(tieredCompactSegments)); err != nil {
			return fail(err)
		}
	}
	return cl, nil
}

// writeDB writes a PCDB01 seed file.
func writeDB(path string, db *fingerprint.DB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := db.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phase is what one open-loop phase observed.
type phase struct {
	open   []sample
	enroll enrollResult
}

// runOpen warms the servers up, then runs the open-loop identify stream
// (and, on the tiered workload, the enrollment stream beside it) for d.
func (b *bench) runOpen(cl *fleet, o *OpenStream, d time.Duration, tr *tracer) (phase, []sample) {
	f := b.fix
	warm := f.Closed[len(f.Closed)-b.w.warmup:]
	conns := []*http.Client{newConn(), newConn()}
	warmS, _ := closedLoop(conns[:1], cl.url, warm, time.Hour, nil)
	var ph phase
	if b.w.topo != tiered {
		ph.open = openLoop(conns, cl.url, o.Queries, o.Due, d, nil, tr)
		return ph, warmS
	}
	prom := &promotions{at: make([]atomic.Int64, len(f.Enroll))}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ph.enroll = enrollStream(conns[1], cl.url, f, d, prom, tr)
	}()
	ph.open = openLoop(conns[:1], cl.url, o.Queries, o.Due, d, prom, tr)
	<-done
	return ph, warmS
}

// judge folds samples into the report's attempted, failed and wrong.
func (r *report) judge(what string, ss []sample) {
	for _, s := range ss {
		r.attempted++
		if s.failed {
			r.failed++
		}
		if s.wrong != "" {
			r.wrong = append(r.wrong, what+": "+s.wrong)
		}
	}
}

// judgeEnroll folds the enrollment stream's outcome into the report and
// holds the run to the workload's designed store activity.
func (r *report) judgeEnroll(w *workload, e enrollResult) {
	r.attempted += e.attempted
	r.failed += e.failed
	r.wrong = append(r.wrong, e.wrong...)
	if e.checkpoints < w.minCheckpoints || e.compactions < w.minCompactions {
		r.wrong = append(r.wrong, fmt.Sprintf("invalid run: %d checkpoints and %d compactions, designed for at least %d and %d",
			e.checkpoints, e.compactions, w.minCheckpoints, w.minCompactions))
	}
}

// round is one set-up and measurement of the untraced run.
type round struct {
	setup    time.Duration
	open     []sample
	enroll   enrollResult
	capacity float64 // correct verdicts per second, closed loop
	capN     int
	rssMB    float64
}

// measureRound sets up from scratch, then runs the open-loop phase and the
// closed-loop capacity phase for this round's share of the run.
func (b *bench) measureRound(dir string, i int, rep *report) (round, error) {
	var r round
	cl, took, err := b.setup(dir, false)
	if err != nil {
		return r, err
	}
	defer cl.stopAll()
	r.setup = took
	share := b.dur / roundsPerRun
	openD := time.Duration(float64(share) * openShare)
	ph, warm := b.runOpen(cl, &b.fix.Open[i], openD, nil)
	capS, elapsed := closedLoop([]*http.Client{newConn(), newConn()}, cl.url,
		b.fix.Closed[:len(b.fix.Closed)-b.w.warmup], share-openD, nil)
	if r.rssMB, err = cl.peakRSSMB(); err != nil {
		return r, err
	}
	if err := cl.stopAll(); err != nil {
		return r, err
	}
	rep.judge("warm-up", warm)
	rep.judge("open loop", ph.open)
	rep.judge("capacity", capS)
	if b.w.topo == tiered {
		rep.judgeEnroll(b.w, ph.enroll)
	}
	for _, s := range capS {
		if !s.failed && s.wrong == "" {
			r.capN++
		}
	}
	r.open, r.enroll = ph.open, ph.enroll
	r.capacity = float64(r.capN) / elapsed.Seconds()
	return r, nil
}

// endToEnd is the untraced run. It splits the measured seconds over the
// workload's set-ups: each round sets up from scratch and measures its
// share, and the report takes the median over rounds, so one slow process
// or one noisy stretch of the machine moves a metric less.
func (b *bench) endToEnd() (*report, error) {
	rep := &report{}
	var rounds []round
	for i := 0; i < roundsPerRun; i++ {
		dir, err := mkdir(b.dir, fmt.Sprintf("round%d", i))
		if err != nil {
			return nil, err
		}
		r, err := b.measureRound(dir, i, rep)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	var all, hit, miss, enrollLat []time.Duration
	capN := 0
	for _, r := range rounds {
		a, h, m := latencies(r.open)
		all, hit, miss = append(all, a...), append(hit, h...), append(miss, m...)
		enrollLat = append(enrollLat, r.enroll.lat...)
		capN += r.capN
	}
	// perRound adds the median over rounds of f, listing every round's
	// value in the note.
	perRound := func(name, unit string, n int, f func(r round) float64, note string) {
		var vs []float64
		var xs []string
		for _, r := range rounds {
			vs = append(vs, f(r))
			xs = append(xs, fmt.Sprintf("%.4g", vs[len(vs)-1]))
		}
		rep.add(name, median(vs), unit, n, notes("median of rounds "+strings.Join(xs, ", "), note))
	}
	// p50 is a round's median latency over all (0), hit (1) or miss (2)
	// samples.
	p50 := func(split int) func(r round) float64 {
		return func(r round) float64 {
			a, h, m := latencies(r.open)
			return quantile(ms([][]time.Duration{a, h, m}[split]), 0.5)
		}
	}
	// Tails pool every round's samples, so they rest on the whole run.
	tail := func(name string, lat []time.Duration, q float64) {
		v := ms(lat)
		rep.add(name, quantile(v, q), "ms", len(v), notes("pooled rounds", tailNote(len(v), q)))
	}
	perRound("identify_p50_ms", "ms", len(all), p50(0), "")
	tail("identify_p99_ms", all, 0.99)
	perRound("identify_hit_p50_ms", "ms", len(hit), p50(1), "")
	tail("identify_hit_p90_ms", hit, 0.90)
	perRound("identify_miss_p50_ms", "ms", len(miss), p50(2), "")
	tail("identify_miss_p90_ms", miss, 0.90)
	perRound("identify_capacity_rps", "1/s", capN, func(r round) float64 { return r.capacity }, "closed loop, 2 connections")
	if b.w.topo == tiered {
		el := ms(enrollLat)
		rep.add("enroll_p50_ms", quantile(el, 0.5), "ms", len(el), "pooled rounds")
		tail("enroll_p99_ms", enrollLat, 0.99)
		perRound("store.checkpoints", "count", len(rounds), func(r round) float64 { return float64(r.enroll.checkpoints) }, "")
		perRound("store.compactions", "count", len(rounds), func(r round) float64 { return float64(r.enroll.compactions) }, "")
	}
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	rep.add("error_rate", errRate, "ratio", rep.attempted, "base: operations attempted")
	perRound("setup_s", "s", len(rounds), func(r round) float64 { return r.setup.Seconds() }, "")
	perRound("server_peak_rss_mb", "MB", len(rounds), func(r round) float64 { return r.rssMB }, "sum of VmHWM over serving processes")
	return rep, nil
}
