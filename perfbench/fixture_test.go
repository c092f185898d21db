package main

import (
	"bytes"
	"testing"
)

func testParams(seed uint64) Params {
	return Params{
		Devices: 2000, Stream: 20, PageBits: 4096,
		Accuracies: []float64{0.99, 0.95, 0.90}, HitShare: 0.5, ZipfS: 1.1,
		RepeatShare: 0.3, Rate: 200, Seed: seed,
	}
}

// TestSameSeedSameStreams pins the benchmark's determinism: one seed gives
// byte-identical request streams and schedules, another seed does not, and
// only resends repeat a body.
func TestSameSeedSameStreams(t *testing.T) {
	a, b := Generate(testParams(7), 2, 300, 100), Generate(testParams(7), 2, 300, 100)
	c := Generate(testParams(8), 2, 300, 100)
	same := func(x, y *Fixture) bool {
		for r := range x.Open {
			xo, yo := x.Open[r], y.Open[r]
			for i := range xo.Queries {
				if !bytes.Equal(xo.Queries[i].Body, yo.Queries[i].Body) || xo.Queries[i].Want != yo.Queries[i].Want || xo.Due[i] != yo.Due[i] {
					return false
				}
			}
		}
		for i := range x.Closed {
			if !bytes.Equal(x.Closed[i].Body, y.Closed[i].Body) {
				return false
			}
		}
		for i := range x.Enroll {
			if x.Enroll[i] != y.Enroll[i] || !bytes.Equal(x.P.EnrollBody(i, 0), y.P.EnrollBody(i, 0)) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("the same seed produced different request streams")
	}
	bodies := map[string]bool{}
	for _, q := range append(append(append([]Query(nil), a.Open[0].Queries...), a.Open[1].Queries...), a.Closed...) {
		if !q.Repeat && bodies[string(q.Body)] {
			t.Fatal("a fresh query repeats an earlier body")
		}
		bodies[string(q.Body)] = true
	}
	if same(a, c) {
		t.Fatal("different seeds produced identical request streams")
	}
}

// TestAnswerKeyAgreesWithOracle checks the answer key against the paper's
// Algorithm 2 scan, fingerprint.DB.Decide, on a sample of queries against
// a 100,000-device corpus, twelve times identify-8k's.
func TestAnswerKeyAgreesWithOracle(t *testing.T) {
	p := testParams(11)
	p.Devices, p.Stream, p.RepeatShare = 100_000, 0, 0
	f := Generate(p, 1, 300, 0)
	db := f.SeedDB(nil)
	hits := 0
	for i, q := range f.Open[0].Queries {
		es, err := decodeQuery(q.Body)
		if err != nil {
			t.Fatal(err)
		}
		v := db.Decide(es)
		if got := verdictName(v.OK(), v.Name); got != q.Want {
			t.Fatalf("query %d: oracle says %q, answer key %q", i, got, q.Want)
		}
		if q.Hit() {
			hits++
		}
	}
	if hits < 100 || hits > 200 {
		t.Fatalf("%d of 300 queries are hits, want about half", hits)
	}
}
