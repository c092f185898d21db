package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"probablecause/internal/bitset"
	"probablecause/internal/drammodel"
	"probablecause/internal/fingerprint"
	"probablecause/internal/prng"
)

// Params parameterizes one generated workload. Everything the servers
// receive is a pure function of these fields, the seed included.
type Params struct {
	Devices     int       // devices in the seed corpus
	Stream      int       // devices enrolled through /v1/enroll during the run
	PageBits    int       // fingerprint length in bits
	Accuracies  []float64 // query accuracy levels, drawn in equal shares
	HitShare    float64   // share of fresh queries read from an enrolled device
	ZipfS       float64   // Zipf skew of device popularity among hits (> 1)
	RepeatShare float64   // share of queries that resend a recent body exactly
	Rate        float64   // open-loop offered rate, requests per second
	Seed        uint64
}

// enrollAccuracy is the accuracy of the fingerprint a device is enrolled
// with and of the trials the enrollment stream sends (the paper's 99 %).
const enrollAccuracy = 0.99

// repeatWindow is how many recent bodies a resend is drawn from.
const repeatWindow = 16

// Query is one /v1/identify request with its answer key.
type Query struct {
	Body []byte
	// Want names the device that must be identified; "" means the verdict
	// must be a miss.
	Want string
	// Stream is the index of the enrollment-stream device the query was
	// read from, or -1. Such a query expects Want only once the device is
	// acknowledged promoted; before that it may also miss.
	Stream int
	// Repeat marks a resend of an earlier body.
	Repeat bool
}

// Hit reports whether the answer key expects a match.
func (q *Query) Hit() bool { return q.Want != "" }

// Fixture is a generated workload: the seed corpus, the enrollment stream
// and the identify query streams.
type Fixture struct {
	P      Params
	Names  []string     // seed corpus device names, in add order
	Prints [][]uint32   // seed corpus fingerprints (ascending positions)
	Open   []OpenStream // one open-loop identify stream per measurement round
	Closed []Query      // closed-loop capacity stream
	Enroll []StreamItem // enrollment stream devices

	seen map[uint64]bool // hashes of every fresh query body drawn so far
}

// OpenStream is an open-loop identify stream on its Poisson schedule.
type OpenStream struct {
	Queries []Query
	Due     []float64 // due offsets, seconds from the phase start
}

// StreamItem is one device the enrollment stream promotes: its name, and
// the number of observations after which the fold must report it promoted.
type StreamItem struct {
	Name string
	Obs  int
	Due  float64 // when its promotion ack is due, seconds from the phase start
}

func deviceName(class string, i int) string { return fmt.Sprintf("%s-%07d", class, i) }

// model returns the DRAM model of device i of a class; classes are disjoint
// sets of physical chips.
func (p *Params) model(class uint64, i int) *drammodel.Model {
	m := drammodel.New(prng.Hash(p.Seed, class, uint64(i)))
	m.PageBits = p.PageBits
	return m
}

const (
	classEnrolled = 0xE0
	classAbsent   = 0xAB
	classStream   = 0x57
)

// Fingerprint returns the enrolled fingerprint of seed-corpus device i: its
// volatile set at the enrollment accuracy.
func (p *Params) Fingerprint(i int) []uint32 {
	s, err := p.model(classEnrolled, i).VolatileSet(0, 1-enrollAccuracy)
	if err != nil {
		panic(err) // the accuracy is a constant inside (0, 1)
	}
	return s
}

// trial reads one approximate output of a device at the given accuracy.
func (p *Params) trial(class uint64, i int, acc float64, trial uint64) []uint32 {
	s, err := p.model(class, i).PageErrors(0, 1-acc, trial)
	if err != nil {
		panic(err) // accuracies are validated by the workload table
	}
	return s
}

// EnrollBody is the /v1/enroll body of stream device d's k-th observation.
func (p *Params) EnrollBody(d, k int) []byte {
	return mustJSON(enrollJSON{
		Session:   fmt.Sprintf("s-%07d", d),
		Name:      deviceName("stream", d),
		Len:       p.PageBits,
		Positions: p.trial(classStream, d, enrollAccuracy, uint64(k)+1),
	})
}

type queryJSON struct {
	Len       int      `json:"len"`
	Positions []uint32 `json:"positions"`
}

type enrollJSON struct {
	Session   string   `json:"session"`
	Name      string   `json:"name"`
	Len       int      `json:"len"`
	Positions []uint32 `json:"positions"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of ints and strings always encode
	}
	return b
}

// Generate builds the fixture: the seed corpus, one stream of nOpen
// open-loop queries per round, nClosed capacity queries and the enrollment
// stream. Every round's stream has its own schedule and its own trials, so
// rounds are independent replications. The enrollment stream's promotion
// points come from folding the same trials through fingerprint.Accumulator
// at its defaults, which is what pcserved runs at its default -enroll.*
// flags.
func Generate(p Params, rounds, nOpen, nClosed int) *Fixture {
	f := &Fixture{P: p, seen: map[uint64]bool{}}
	f.Names = make([]string, p.Devices)
	f.Prints = make([][]uint32, p.Devices)
	for i := range f.Names {
		f.Names[i] = deviceName("dev", i)
		f.Prints[i] = p.Fingerprint(i)
	}
	// The stream is folded first: stream hits may only target devices due
	// promoted well before the query is due.
	var obsDone int
	for d := 0; d < p.Stream; d++ {
		acc, err := fingerprint.NewAccumulator(p.PageBits, fingerprint.AccumulatorConfig{})
		if err != nil {
			panic(err)
		}
		k := 0
		for !acc.Converged() {
			if err := acc.Add(bitset.FromPositions(p.PageBits, p.trial(classStream, d, enrollAccuracy, uint64(k)+1))); err != nil {
				panic(err)
			}
			k++
		}
		obsDone += k
		f.Enroll = append(f.Enroll, StreamItem{
			Name: deviceName("stream", d), Obs: k, Due: float64(obsDone) / enrollObsPerSecond,
		})
	}

	for r := 0; r < rounds; r++ {
		var o OpenStream
		sched := rand.New(rand.NewSource(int64(prng.Hash(p.Seed, 0x5C4E, uint64(r)))))
		t := 0.0
		g := newQueryGen(&p, f, 0x0E00+uint64(r))
		for i := 0; i < nOpen; i++ {
			t += sched.ExpFloat64() / p.Rate
			o.Due = append(o.Due, t)
			o.Queries = append(o.Queries, g.next(uint64(r*nOpen+i)+1, t))
		}
		f.Open = append(f.Open, o)
	}
	g := newQueryGen(&p, f, 0xC1)
	for i := 0; i < nClosed; i++ {
		// Capacity queries carry trials disjoint from the open streams' and
		// target the seed corpus only.
		f.Closed = append(f.Closed, g.next(uint64(rounds*nOpen+i)+1, 0))
	}
	return f
}

// enrollObsPerSecond paces the enrollment stream.
const enrollObsPerSecond = 40

// promotionMargin is how long after its promotion is due a stream device
// may first be queried.
const promotionMargin = 1.0

// streamHitShare is the share of hits that target promoted stream devices
// once there are any: freshly enrolled devices are the hot ones.
const streamHitShare = 0.5

type queryGen struct {
	p      *Params
	f      *Fixture
	rng    *rand.Rand
	zipf   *rand.Zipf
	recent []Query
}

func newQueryGen(p *Params, f *Fixture, stream uint64) *queryGen {
	rng := rand.New(rand.NewSource(int64(prng.Hash(p.Seed, stream))))
	g := &queryGen{p: p, f: f, rng: rng}
	if p.Devices > 1 {
		g.zipf = rand.NewZipf(rng, p.ZipfS, 1, uint64(p.Devices-1))
	}
	return g
}

// next draws one query; trial makes every fresh body unique, due gates
// which stream devices it may target.
func (g *queryGen) next(trial uint64, due float64) Query {
	p := g.p
	if len(g.recent) > 0 && g.rng.Float64() < p.RepeatShare {
		q := g.recent[g.rng.Intn(len(g.recent))]
		q.Repeat = true
		return q
	}
	acc := p.Accuracies[g.rng.Intn(len(p.Accuracies))]
	hit := g.rng.Float64() < p.HitShare
	// Two trials of a popular device at 99 % accuracy often read the same
	// bits. A draw whose body was already produced is drawn again, device
	// and trial, so only resends repeat a body.
	for attempt := uint64(0); ; attempt++ {
		q, class, dev := g.draw(hit, due)
		q.Body = mustJSON(queryJSON{Len: p.PageBits, Positions: p.trial(class, dev, acc, trial+attempt<<40)})
		h := fnv.New64a()
		h.Write(q.Body)
		if sum := h.Sum64(); !g.f.seen[sum] {
			g.f.seen[sum] = true
			return g.remember(q)
		}
		if attempt == maxDraws {
			panic(fmt.Sprintf("no fresh query body after %d draws", maxDraws))
		}
	}
}

// maxDraws bounds the redraws of a query whose body already exists; each
// redraw picks a device afresh, so a handful suffice.
const maxDraws = 1000

// draw picks the chip a fresh query is read from: its answer key, class
// and index.
func (g *queryGen) draw(hit bool, due float64) (q Query, class uint64, dev int) {
	q.Stream = -1
	if !hit {
		// Every miss reads a chip drawn afresh from a space of 2^30 never
		// enrolled ones.
		return q, classAbsent, g.rng.Intn(1 << 30)
	}
	// Promoted stream devices join the hit population once due.
	promoted := 0
	for promoted < len(g.f.Enroll) && g.f.Enroll[promoted].Due+promotionMargin < due {
		promoted++
	}
	if promoted > 0 && g.rng.Float64() < streamHitShare {
		q.Stream = g.rng.Intn(promoted)
		q.Want = g.f.Enroll[q.Stream].Name
		return q, classStream, q.Stream
	}
	if g.zipf != nil {
		dev = int(g.zipf.Uint64())
	}
	q.Want = g.f.Names[dev]
	return q, classEnrolled, dev
}

// remember keeps q among the recent bodies a resend may repeat.
func (g *queryGen) remember(q Query) Query {
	if g.p.RepeatShare > 0 {
		if len(g.recent) == repeatWindow {
			copy(g.recent, g.recent[1:])
			g.recent = g.recent[:repeatWindow-1]
		}
		g.recent = append(g.recent, q)
	}
	return q
}

// SeedDB builds the seed corpus as a fingerprint database, restricted to
// the devices keep accepts (nil keeps all).
func (f *Fixture) SeedDB(keep func(name string) bool) *fingerprint.DB {
	db := fingerprint.NewDB(fingerprint.DefaultThreshold)
	for i, name := range f.Names {
		if keep == nil || keep(name) {
			db.Add(name, bitset.FromPositions(f.P.PageBits, f.Prints[i]))
		}
	}
	return db
}

// decodeQuery turns an identify body back into the error string it carries.
func decodeQuery(body []byte) (*bitset.Set, error) {
	var q queryJSON
	if err := json.Unmarshal(body, &q); err != nil {
		return nil, err
	}
	return bitset.FromPositions(q.Len, q.Positions), nil
}
