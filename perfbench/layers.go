package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/store"
)

// traced is the per-layer run. It runs the open-loop phase twice, first
// against untraced servers and then against servers started with
// -obs.trace and -obs.report whose requests carry the benchmark's own
// X-PC-Trace ids, stops the traced servers with SIGTERM so both files are
// written, and builds the per-layer rows from the span records, the
// counters and the benchmark's in-process probes.
func (b *bench) traced() (*report, error) {
	rep := &report{}
	d := b.dur / 2 // each of the two phases

	plainDir, err := mkdir(b.dir, "untraced")
	if err != nil {
		return nil, err
	}
	cl, _, err := b.setup(plainDir, false)
	if err != nil {
		return nil, err
	}
	plain, warm := b.runOpen(cl, &b.fix.Open[0], d, nil)
	if err := cl.stopAll(); err != nil {
		return nil, err
	}
	rep.judge("untraced warm-up", warm)
	rep.judge("untraced open loop", plain.open)
	if b.w.topo == tiered {
		rep.judgeEnroll(b.w, plain.enroll)
	}

	tracedDir, err := mkdir(b.dir, "traced")
	if err != nil {
		return nil, err
	}
	if cl, _, err = b.setup(tracedDir, true); err != nil {
		return nil, err
	}
	tr := &tracer{}
	ph, warm := b.runOpen(cl, &b.fix.Open[0], d, tr)
	if err := cl.stopAll(); err != nil {
		return nil, err
	}
	rep.judge("traced warm-up", warm)
	rep.judge("traced open loop", ph.open)
	if b.w.topo == tiered {
		rep.judgeEnroll(b.w, ph.enroll)
	}

	// loadgen: validity of the generator itself.
	var late []time.Duration
	failed := 0
	for _, s := range ph.open {
		late = append(late, s.late)
		if s.failed {
			failed++
		}
	}
	lateMS := ms(late)
	rep.add("loadgen.late_p99_ms", quantile(lateMS, 0.99), "ms", len(lateMS), tailNote(len(lateMS), 0.99))
	rep.add("loadgen.sent", float64(len(ph.open)), "count", len(ph.open), "traced open-loop identify requests")
	rep.add("loadgen.failed", float64(failed), "count", len(ph.open), "base: loadgen.sent")

	// The tracing overhead, and the tail percentiles that do not repeat
	// within a tenth run to run, from the untraced phase.
	all, hit, miss := latencies(plain.open)
	untracedP50 := quantile(ms(all), 0.5)
	tracedAll, _, _ := latencies(ph.open)
	tracedP50 := quantile(ms(tracedAll), 0.5)
	rep.add("obs.overhead_ratio", tracedP50/untracedP50, "x", len(ph.open),
		fmt.Sprintf("traced identify_p50 %.3f ms over untraced %.3f ms", tracedP50, untracedP50))
	for _, t := range []struct {
		name string
		lat  []time.Duration
		q    float64
	}{{"identify_p99_ms", all, 0.99}, {"identify_hit_p90_ms", hit, 0.9}, {"identify_miss_p90_ms", miss, 0.9}} {
		v := ms(t.lat)
		rep.add(t.name, quantile(v, t.q), "ms", len(v), notes("untraced phase", tailNote(len(v), t.q)))
	}

	if err := b.spanRows(rep, tracedDir, ph); err != nil {
		return nil, err
	}
	if err := b.probes(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// span is one record of a pcserved -obs.trace file.
type span struct {
	Name string `json:"name"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	TID  int64  `json:"tid"`
	Args struct {
		Trace string `json:"trace"`
	} `json:"args"`
}

// request is the span records of one request in one process: one track.
type request struct {
	spans []span
}

func (r *request) root() *span {
	best := -1
	for i := range r.spans {
		if best < 0 || r.spans[i].Dur > r.spans[best].Dur {
			best = i
		}
	}
	return &r.spans[best]
}

// selfUS is the root's duration minus the part of it the named children
// (every non-root span when names is nil) cover.
func (r *request) selfUS(names func(string) bool) float64 {
	root := r.root()
	var iv [][2]int64
	for i := range r.spans {
		s := &r.spans[i]
		if s == root || (names != nil && !names(s.Name)) {
			continue
		}
		iv = append(iv, [2]int64{s.TS, s.TS + s.Dur})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, end := int64(0), root.TS
	for _, x := range iv {
		lo, hi := max(x[0], end), min(x[1], root.TS+root.Dur)
		if hi > lo {
			covered += hi - lo
			end = hi
		}
	}
	return float64(root.Dur - covered)
}

// counters is a pcserved -obs.report snapshot.
type counters struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum"`
		P50   int64 `json:"p50"`
	} `json:"histograms"`
}

// loadProc reads one process's trace and report files.
func loadProc(dir, name string) ([]*request, *counters, error) {
	var recs []span
	blob, err := os.ReadFile(filepath.Join(dir, name+".trace.json"))
	if err != nil {
		return nil, nil, err
	}
	if err := json.Unmarshal(blob, &recs); err != nil {
		return nil, nil, fmt.Errorf("%s trace: %w", name, err)
	}
	byTrack := map[int64]*request{}
	var reqs []*request
	for _, s := range recs {
		r := byTrack[s.TID]
		if r == nil {
			r = &request{}
			byTrack[s.TID] = r
			reqs = append(reqs, r)
		}
		r.spans = append(r.spans, s)
	}
	var c counters
	blob, err = os.ReadFile(filepath.Join(dir, name+".report.json"))
	if err != nil {
		return nil, nil, err
	}
	if err := json.Unmarshal(blob, &c); err != nil {
		return nil, nil, fmt.Errorf("%s report: %w", name, err)
	}
	return reqs, &c, nil
}

// spanRows builds the server, fingerprint, wal, cluster and obs rows from
// the traced processes' span records and counters.
func (b *bench) spanRows(rep *report, dir string, ph phase) error {
	sent := map[string]bool{}
	for _, s := range ph.open {
		sent[s.traceID] = true
	}
	nodes := []string{"node"}
	if b.w.topo == scatter {
		nodes = []string{"node0", "node1"}
	}
	var nodeReqs []*request
	sum := map[string]int64{}
	hist := map[string][2]int64{} // name → count, sum
	var fsyncP50 []float64
	spansSeen := 0
	for _, n := range nodes {
		reqs, c, err := loadProc(dir, n)
		if err != nil {
			return err
		}
		nodeReqs = append(nodeReqs, reqs...)
		for _, r := range reqs {
			if sent[r.spans[0].Args.Trace] {
				spansSeen += len(r.spans)
			}
		}
		for k, v := range c.Counters {
			sum[k] += v
		}
		for k, h := range c.Histograms {
			hist[k] = [2]int64{hist[k][0] + h.Count, hist[k][1] + h.Sum}
			if k == "wal.fsync.nanos" && h.Count > 0 {
				fsyncP50 = append(fsyncP50, float64(h.P50)/1e6)
			}
		}
	}

	durs := func(reqs []*request, name string, perRequest func([]float64) float64) []float64 {
		var out []float64
		for _, r := range reqs {
			var ds []float64
			for _, s := range r.spans {
				if s.Name == name {
					ds = append(ds, float64(s.Dur)/1e3)
				}
			}
			if len(ds) == 0 {
				continue
			}
			if perRequest == nil {
				out = append(out, ds...)
			} else {
				out = append(out, perRequest(ds))
			}
		}
		sort.Float64s(out)
		return out
	}
	identify := filterRoot(nodeReqs, "identify")
	req := durs(identify, "identify", nil)
	rep.add("server.request_p50_ms", quantile(req, 0.5), "ms", len(req), "identify root spans")
	rep.add("server.request_p99_ms", quantile(req, 0.99), "ms", len(req), tailNote(len(req), 0.99))
	var self []float64
	for _, r := range identify {
		self = append(self, r.selfUS(nil)/1e3)
	}
	sort.Float64s(self)
	rep.add("server.http_self_p50_ms", quantile(self, 0.5), "ms", len(self), "root span minus its children")
	qw := durs(identify, "queue.wait", nil)
	rep.add("server.queue_wait_p50_ms", quantile(qw, 0.5), "ms", len(qw), "")
	rep.add("server.queue_wait_p99_ms", quantile(qw, 0.99), "ms", len(qw), tailNote(len(qw), 0.99))
	bt := durs(identify, "batch", nil)
	rep.add("server.batch_p50_ms", quantile(bt, 0.5), "ms", len(bt), "batch span: the engine's execution of the query's batch")
	bs := hist["server.batch.size"]
	rep.add("server.batch_size_mean", ratio(bs[1], bs[0]), "count", int(bs[0]), "base: dispatches")
	lookups := sum["server.cache.hits"] + sum["server.cache.misses"]
	rep.add("server.cache_hit_ratio", ratio(sum["server.cache.hits"], lookups), "ratio", int(lookups), "base: cache lookups")

	// Engine executions: one batch span per query the engine decided.
	execs := int64(len(bt))
	base := fmt.Sprintf("base: %d engine executions", execs)
	rep.add("fingerprint.fallback_scan_ratio", ratio(sum["fingerprint.identify.fallback_scans"], execs), "ratio", int(execs), base)
	rep.add("fingerprint.candidates_per_query", ratio(sum["fingerprint.identify.candidates"], execs), "count", int(execs), base)
	rep.add("fingerprint.distance_calls_per_query", ratio(sum["fingerprint.distance.calls"]+sum["fingerprint.sparse_distance.calls"], execs), "count", int(execs), base)
	rep.add("fingerprint.pruned_per_query", ratio(sum["fingerprint.identify.pruned"], execs), "count", int(execs), base)
	if dec := durs(identify, "decide", nil); len(dec) > 0 {
		rep.add("fingerprint.decide_p50_ms", quantile(dec, 0.5), "ms", len(dec), "decide span (cross-shard combine), µs resolution")
		sh := durs(identify, "shard.identify", maxOf)
		rep.add("fingerprint.shard_identify_p99_ms", quantile(sh, 0.99), "ms", len(sh), notes("slowest shard per query", tailNote(len(sh), 0.99)))
	} else {
		sd := durs(identify, "store.decide", nil)
		rep.add("store.tier_decide_p50_ms", quantile(sd, 0.5), "ms", len(sd), "store.decide span; the tiered backend records no decide or shard.identify spans")
	}
	if b.w.topo == tiered {
		enroll := filterRoot(nodeReqs, "enroll")
		fw := durs(enroll, "fold.wait", nil)
		fa := durs(enroll, "fold.apply", nil)
		wa := durs(enroll, "wal.append", nil)
		rep.add("server.fold_wait_p50_ms", quantile(fw, 0.5), "ms", len(fw), "")
		rep.add("server.fold_apply_p50_ms", quantile(fa, 0.5), "ms", len(fa), "")
		rep.add("wal.append_p50_ms", quantile(wa, 0.5), "ms", len(wa), "wal.append span")
		rep.add("wal.fsync_p50_ms", median(fsyncP50), "ms", int(hist["wal.fsync.nanos"][0]), "wal.fsync.nanos histogram")
		fb := hist["wal.fsync.batch_records"]
		rep.add("wal.fsync_batch_records_mean", ratio(fb[1], fb[0]), "count", int(fb[0]), "base: fsyncs")
		rep.add("store.checkpoints", float64(ph.enroll.checkpoints), "count", ph.enroll.promoted, "watermark advances on /v1/db; base: devices promoted")
		rep.add("store.segments_end", float64(ph.enroll.segmentsEnd), "count", ph.enroll.checkpoints, "base: checkpoints")
	}
	if b.w.topo == scatter {
		reqs, c, err := loadProc(dir, "router")
		if err != nil {
			return err
		}
		scat := filterRoot(reqs, "scatter.identify")
		for _, r := range scat {
			if sent[r.spans[0].Args.Trace] {
				spansSeen += len(r.spans)
			}
		}
		isLeg := func(n string) bool { return strings.HasPrefix(n, "scatter.p") }
		var legs, strag, coord []float64
		for _, r := range scat {
			var ls []float64
			for _, s := range r.spans {
				if isLeg(s.Name) {
					ls = append(ls, float64(s.Dur)/1e3)
				}
			}
			legs = append(legs, ls...)
			if len(ls) > 1 {
				sort.Float64s(ls)
				strag = append(strag, ls[len(ls)-1]-ls[0])
			}
			coord = append(coord, r.selfUS(isLeg)/1e3)
		}
		sort.Float64s(legs)
		sort.Float64s(strag)
		sort.Float64s(coord)
		rep.add("cluster.leg_p50_ms", quantile(legs, 0.5), "ms", len(legs), "scatter.p0 and scatter.p1 spans")
		rep.add("cluster.leg_p99_ms", quantile(legs, 0.99), "ms", len(legs), tailNote(len(legs), 0.99))
		rep.add("cluster.straggler_p50_ms", quantile(strag, 0.5), "ms", len(strag), "slowest leg minus fastest, per request")
		rep.add("cluster.coordinator_self_p50_ms", quantile(coord, 0.5), "ms", len(coord), "scatter.identify minus its legs")
		rep.add("cluster.retries", float64(c.Counters["cluster.router.retries"]), "count", len(scat), "base: scattered requests")
	}
	rep.add("obs.spans_per_request", ratio(int64(spansSeen), int64(len(sent))), "count", len(sent), "spans joined to the benchmark's trace ids, every process")
	return nil
}

func filterRoot(reqs []*request, name string) []*request {
	var out []*request
	for _, r := range reqs {
		if r.root().Name == name {
			out = append(out, r)
		}
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probeQueries is how many hit and how many miss queries the in-process
// probes time: enough for a p90 with ten samples beyond it.
const probeQueries = 100

// probes times the storage layer in process on the workload's own corpus
// and queries, through public, engine-agnostic surfaces only: store.Open
// at the workload's backend, Backend.DecideCtx, the fingerprint.DB.Decide
// oracle and, on the tiered workload, DurableBackend.Checkpoint. Each call
// is one span of the benchmark's own; obs stays off in this process, so
// the numbers carry no instrumentation cost.
func (b *bench) probes(rep *report) error {
	f := b.fix
	var hits, misses []*bitset.Set
	for _, o := range f.Open {
		for i := range o.Queries {
			q := &o.Queries[i]
			if q.Repeat || q.Stream >= 0 {
				continue
			}
			es, err := decodeQuery(q.Body)
			if err != nil {
				return err
			}
			if q.Hit() && len(hits) < probeQueries {
				hits = append(hits, es)
			} else if !q.Hit() && len(misses) < probeQueries {
				misses = append(misses, es)
			}
		}
	}
	cfg := store.Config{}
	if b.w.topo == tiered {
		dir, err := mkdir(b.dir, "probe-store")
		if err != nil {
			return err
		}
		cfg = store.Config{Backend: store.BackendTiered, Dir: dir,
			FlushEntries: tieredFlushEntries, CompactSegments: tieredCompactSegments}
	}
	be, err := store.Open(cfg, store.DBConfig{Threshold: fingerprint.DefaultThreshold})
	if err != nil {
		return err
	}
	defer be.Close()
	for i, name := range f.Names {
		be.Add(name, bitset.FromPositions(f.P.PageBits, f.Prints[i]))
	}
	dur, _ := be.(store.DurableBackend)
	if dur != nil {
		// The server's layout: the seed corpus in one committed segment.
		if err := dur.Checkpoint(1); err != nil {
			return err
		}
	}
	oracle := f.SeedDB(nil)
	ctx := context.Background()
	decide := func(qs []*bitset.Set, want bool, call func(*bitset.Set) fingerprint.Verdict) ([]float64, error) {
		out := make([]float64, len(qs))
		for i, q := range qs {
			t0 := time.Now()
			v := call(q)
			out[i] = float64(time.Since(t0)) / 1e6
			if v.OK() != want {
				return nil, fmt.Errorf("probe verdict match=%v contradicts the answer key", v.OK())
			}
		}
		sort.Float64s(out)
		return out, nil
	}
	backend := func(q *bitset.Set) fingerprint.Verdict { return be.DecideCtx(ctx, q) }
	bh, err := decide(hits, true, backend)
	if err != nil {
		return err
	}
	bm, err := decide(misses, false, backend)
	if err != nil {
		return err
	}
	oh, err := decide(hits, true, oracle.Decide)
	if err != nil {
		return err
	}
	om, err := decide(misses, false, oracle.Decide)
	if err != nil {
		return err
	}
	rep.add("store.decide_hit_p50_ms", quantile(bh, 0.5), "ms", len(bh), "in-process Backend.DecideCtx")
	rep.add("store.decide_hit_p90_ms", quantile(bh, 0.9), "ms", len(bh), tailNote(len(bh), 0.9))
	rep.add("store.decide_miss_p50_ms", quantile(bm, 0.5), "ms", len(bm), "")
	rep.add("store.decide_miss_p90_ms", quantile(bm, 0.9), "ms", len(bm), tailNote(len(bm), 0.9))
	oall := append(append([]float64(nil), oh...), om...)
	sort.Float64s(oall)
	rep.add("store.oracle_decide_p50_ms", quantile(oall, 0.5), "ms", len(oall), "fingerprint.DB.Decide, hits and misses")
	// ROADMAP findings, recorded and not gated.
	rep.add("finding.hit_over_miss_p50", quantile(bh, 0.5)/quantile(bm, 0.5), "x", len(bh),
		fmt.Sprintf("store decide hit p50 %.3f ms over miss p50 %.3f ms", quantile(bh, 0.5), quantile(bm, 0.5)))
	rep.add("finding.serving_hit_over_oracle", quantile(bh, 0.5)/quantile(oh, 0.5), "x", len(bh),
		fmt.Sprintf("store decide hit p50 %.3f ms over oracle hit p50 %.3f ms", quantile(bh, 0.5), quantile(oh, 0.5)))
	if dur != nil {
		return b.stallProbe(rep, be, dur, append(hits, misses...))
	}
	return nil
}

// stallRounds is how many workload-sized checkpoints the stall probe
// times; with the workload's compaction threshold the later ones compact.
const stallRounds = 3

// stallProbe times DurableBackend.Checkpoint while one goroutine keeps
// calling DecideCtx, and compares the longest decide that overlapped a
// checkpoint with the steady decide p99. Its rounds flush what the
// workload flushes; a last, bulk round flushes as many entries as the seed
// corpus holds and compacts them, the shape of ROADMAP's checkpoint stall.
func (b *bench) stallProbe(rep *report, be store.Backend, dur store.DurableBackend, qs []*bitset.Set) error {
	ctx := context.Background()
	f := b.fix
	var steady []float64
	t0 := time.Now()
	for i := 0; len(steady) < 1000 || time.Since(t0) < time.Second; i++ {
		s := time.Now()
		be.DecideCtx(ctx, qs[i%len(qs)])
		steady = append(steady, float64(time.Since(s))/1e6)
	}
	sort.Float64s(steady)
	p99 := quantile(steady, 0.99)

	stream := 0
	round := func(entries int) (cp, stall float64, err error) {
		for j := 0; j < entries; j++ {
			be.Add(deviceName("probe", stream), bitset.FromPositions(f.P.PageBits, f.P.trial(classStream, stream, enrollAccuracy, 1)))
			stream++
		}
		stop := make(chan struct{})
		stalls := make(chan float64, 1)
		go func() {
			worst := 0.0
			for i := 0; ; i++ {
				select {
				case <-stop:
					stalls <- worst
					return
				default:
				}
				s := time.Now()
				be.DecideCtx(ctx, qs[i%len(qs)])
				worst = math.Max(worst, float64(time.Since(s))/1e6)
			}
		}()
		c0 := time.Now()
		err = dur.Checkpoint(dur.Watermark() + 1)
		cp = time.Since(c0).Seconds()
		close(stop)
		return cp, <-stalls, err
	}
	var cps []float64
	stallMax := 0.0
	for i := 0; i < stallRounds; i++ {
		cp, stall, err := round(tieredFlushEntries)
		if err != nil {
			return err
		}
		cps = append(cps, cp)
		stallMax = math.Max(stallMax, stall)
	}
	bulkCP, bulkStall, err := round(len(f.Names))
	if err != nil {
		return err
	}
	rep.add("store.checkpoint_s", median(cps), "s", len(cps), fmt.Sprintf("median DurableBackend.Checkpoint of %d entries", tieredFlushEntries))
	rep.add("store.stall_max_ms", stallMax, "ms", len(cps), "longest DecideCtx overlapping those checkpoints")
	rep.add("store.stall_ratio", stallMax/p99, "x", len(steady), fmt.Sprintf("stall max over steady decide p99 %.3f ms", p99))
	rep.add("store.bulk_checkpoint_s", bulkCP, "s", len(f.Names), "one checkpoint flushing and compacting a seed-corpus-sized memtable")
	rep.add("finding.bulk_stall_ratio", bulkStall/p99, "x", len(steady), fmt.Sprintf("longest DecideCtx during it, %.1f ms, over steady decide p99 %.3f ms", bulkStall, p99))
	return nil
}
