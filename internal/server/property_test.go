package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/prng"
)

// propQuery pairs a query with the offline dense-scan verdict it must earn.
type propQuery struct {
	es   *bitset.Set
	want fingerprint.Verdict
}

// propQueries builds a randomized query mix over the DB: noisy hits on every
// device, twin-ambiguous probes, and pure misses.
func propQueries(db *fingerprint.DB, seed uint64) []propQuery {
	var qs []propQuery
	for i, e := range db.Entries() {
		qs = append(qs, propQuery{es: noisyQuery(e.FP, seed+uint64(i), int(prng.Hash(seed, uint64(i))%200))})
	}
	for j := 0; j < 10; j++ {
		qs = append(qs, propQuery{es: testSet(prng.Hash(seed, 0xA1, uint64(j)), 64)})
	}
	// Duplicates exercise the cache without changing any verdict.
	qs = append(qs, qs[0], qs[len(qs)/2])
	for i := range qs {
		qs[i].want = db.Decide(qs[i].es)
	}
	return qs
}

// checkVerdict holds a served verdict to the offline dense-scan one, field
// for field: every serving engine decides exactly, Matches included.
func checkVerdict(t *testing.T, label string, got, want fingerprint.Verdict) {
	t.Helper()
	if got != want {
		t.Errorf("%s: served %+v, offline %+v", label, got, want)
	}
}

// TestServeInvariance is the serving-path determinism property: for any shard
// count, any batch window, cache on or off, every
// verdict the batched+sharded+cached service returns equals the direct
// fingerprint.DB.Decide dense scan — concurrency moves wall-clock only.
func TestServeInvariance(t *testing.T) {
	type combo struct {
		shards int
		window time.Duration
		cache  int
	}
	combos := []combo{
		{shards: 1, window: 0, cache: 0},
		{shards: 3, window: 0, cache: 128},
		{shards: 8, window: 2 * time.Millisecond, cache: 0},
		{shards: 5, window: 1 * time.Millisecond, cache: 64},
		{shards: 2, window: 500 * time.Microsecond, cache: 16},
	}
	for ci, cb := range combos {
		cb := cb
		// The serving path has neither a plain nor a sliced engine; the
		// constant tokens keep the subtest ids stable.
		t.Run(fmt.Sprintf("shards=%d_window=%s_cache=%d_plain=false_sliced=false", cb.shards, cb.window, cb.cache), func(t *testing.T) {
			t.Parallel()
			seed := uint64(0x5EED0 + ci)
			db := fixtureDB(24)
			// A twin pair makes ambiguity part of the property.
			twin := testSet(prng.Hash(seed, 0x77), 64)
			db.Add("twinA", twin)
			db.Add("twinB", twin.Clone())
			qs := propQueries(db, seed)

			s, err := New(db, Config{
				Shards:      cb.shards,
				Workers:     2,
				BatchWindow: cb.window,
				MaxBatch:    7, // forces multi-dispatch splits
				CacheSize:   cb.cache,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// Fire every query concurrently so the dispatcher actually
			// coalesces, twice so the cache (when on) serves repeats.
			for round := 0; round < 2; round++ {
				var wg sync.WaitGroup
				for qi := range qs {
					wg.Add(1)
					go func(qi int) {
						defer wg.Done()
						v, _, err := s.Identify(context.Background(), qs[qi].es)
						if err != nil {
							t.Errorf("query %d: %v", qi, err)
							return
						}
						checkVerdict(t, fmt.Sprintf("round %d query %d", round, qi), v, qs[qi].want)
					}(qi)
				}
				wg.Wait()
			}

			// The batch entry point must agree with the per-query one.
			ess := make([]*bitset.Set, len(qs))
			for i := range qs {
				ess[i] = qs[i].es
			}
			verdicts, _, err := s.IdentifyBatch(context.Background(), ess)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range verdicts {
				checkVerdict(t, fmt.Sprintf("batch query %d", i), v, qs[i].want)
			}
		})
	}
}

// TestServeInvarianceUnderMutation holds the property across DB mutations:
// after every add or remove, served verdicts track an offline DB mutated the
// same way — the generation-guarded cache never resurrects a pre-mutation
// answer.
func TestServeInvarianceUnderMutation(t *testing.T) {
	offline := fixtureDB(10)
	s, err := New(fixtureDB(10), Config{Shards: 3, CacheSize: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// ShardedDB ids are stable add-order ids that survive Removes, while the
	// plain DB compacts indexes on Remove — so after a removal only the
	// name/distance/verdict half of the property holds, not the raw index.
	check := func(step string, compareIndex bool) {
		t.Helper()
		for i, e := range offline.Entries() {
			q := noisyQuery(e.FP, uint64(i)*13+1, 60)
			want := offline.Decide(q)
			v, _, err := s.Identify(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if compareIndex {
				checkVerdict(t, fmt.Sprintf("%s entry %d", step, i), v, want)
			} else if v.Name != want.Name || v.Distance != want.Distance || v.OK() != want.OK() {
				t.Errorf("%s entry %d: served %+v, offline %+v", step, i, v, want)
			}
		}
	}

	check("initial", true)
	check("cached", true) // second pass mostly cache-served; same verdicts

	fp := testSet(0xADD1, 64)
	offline.Add("late", fp)
	s.Add("late", fp.Clone())
	check("after add", true)

	if !offline.Remove("dev004") || !s.Remove("dev004") {
		t.Fatal("remove failed")
	}
	check("after remove", false)

	if q := noisyQuery(fp, 0x99, 50); true {
		v, _, err := s.Identify(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !v.OK() || v.Name != "late" {
			t.Fatalf("late-added device not served: %+v", v)
		}
	}
}
