package fingerprint

import (
	"probablecause/internal/bitset"
	"probablecause/internal/obs"
	"probablecause/internal/pool"
)

// Verdict is the full outcome of one identification decision: the
// best-matching entry, its distance, and how many database entries sat under
// the threshold. It subsumes Identify (OK ⇔ Matches ≥ 1) and IdentifyBest
// (Name/Index/Distance) and adds the ambiguity verdict the serving layer and
// the pcause CLI surface: Matches ≥ 2 means the error string matched more
// than one registered fingerprint, so the name returned is a guess between
// colliding devices (Table 2's false-positive regime), not an identification.
type Verdict struct {
	// Name and Index locate the minimum-distance entry. Index is -1 when the
	// database is empty; for ShardedDB it is the entry's stable add-order id
	// rather than a dense slice index (see ShardedDB).
	Name  string
	Index int
	// Distance is the modified Jaccard distance (Algorithm 3) to the best
	// entry; 2 (above any real distance) when the database is empty.
	Distance float64
	// Matches counts entries under the identification threshold.
	Matches int
}

// OK reports whether the best entry is under the threshold — Algorithm 2's
// accept decision.
func (v Verdict) OK() bool { return v.Matches >= 1 }

// Ambiguous reports whether more than one entry matched.
func (v Verdict) Ambiguous() bool { return v.Matches >= 2 }

// recordVerdict updates the shared identify hit/miss/ambiguous counters for
// one decision. A folded decision reaches it once, through Answer.Record.
func recordVerdict(v Verdict) {
	if !obs.On() {
		return
	}
	switch {
	case v.Matches == 0:
		cIdentifyMiss.Inc()
	case v.Matches == 1:
		cIdentifyHit.Inc()
	default:
		cIdentifyHit.Inc()
		cIdentifyAmbig.Inc()
	}
}

// Decide runs the full identification decision against the database: one
// dense scan yielding the best entry, its distance, and the number of
// entries under the threshold.
func (db *DB) Decide(errorString *bitset.Set) Verdict {
	v := db.decideRaw(errorString)
	recordVerdict(v)
	return v
}

// decideRaw is Decide without the obs verdict counters, for callers that
// aggregate several scans into one decision.
func (db *DB) decideRaw(errorString *bitset.Set) Verdict {
	v := Verdict{Index: -1, Distance: 2} // above any possible distance
	for i, e := range db.entries {
		if !db.alive(i) {
			continue
		}
		d := Distance(errorString, e.FP)
		if d < db.threshold {
			v.Matches++
		}
		if d < v.Distance {
			v.Name, v.Index, v.Distance = e.Name, i, d
		}
	}
	return v
}

// firstMatch is Algorithm 2's accept loop without obs counters: the first
// entry under the threshold in add order.
func (db *DB) firstMatch(errorString *bitset.Set) (name string, index int, ok bool) {
	for i, e := range db.entries {
		if !db.alive(i) {
			continue
		}
		if Distance(errorString, e.FP) < db.threshold {
			return e.Name, i, true
		}
	}
	return "", -1, false
}

// Decide is DB.Decide over the candidate buckets. When no candidate sits
// under the threshold and the fallback is enabled, the verified full scan
// decides instead, so a reported miss carries the true global best and a
// sub-threshold match is never lost to index recall. As with Identify, the
// Matches count inspects candidates only on the indexed path; with multiple
// sub-threshold entries it can undercount relative to a dense scan if the
// index misses one of them.
func (x *IndexedDB) Decide(errorString *bitset.Set) Verdict {
	v := x.decideRaw(errorString)
	recordVerdict(v)
	return v
}

func (x *IndexedDB) decideRaw(errorString *bitset.Set) Verdict {
	v := Verdict{Index: -1, Distance: 2}
	for _, i := range x.candidates(errorString) {
		if !x.db.alive(i) {
			continue
		}
		e := x.db.entries[i]
		d := Distance(errorString, e.FP)
		if d < x.db.threshold {
			v.Matches++
		}
		if d < v.Distance {
			v.Name, v.Index, v.Distance = e.Name, i, d
		}
	}
	if v.Matches == 0 && !x.cfg.NoFallback {
		if obs.On() {
			cIndexFallbacks.Inc()
		}
		return x.db.decideRaw(errorString)
	}
	return v
}

// firstMatch is the indexed analogue of DB.firstMatch: first candidate under
// the threshold, with the verified fallback scan when no candidate matches.
func (x *IndexedDB) firstMatch(errorString *bitset.Set) (name string, index int, ok bool) {
	for _, i := range x.candidates(errorString) {
		if !x.db.alive(i) {
			continue
		}
		e := x.db.entries[i]
		if Distance(errorString, e.FP) < x.db.threshold {
			return e.Name, i, true
		}
	}
	if !x.cfg.NoFallback {
		if obs.On() {
			cIndexFallbacks.Inc()
		}
		return x.db.firstMatch(errorString)
	}
	return "", -1, false
}

// ParallelDecide runs Decide for every error string across a bounded worker
// pool and returns the verdicts in input order, with the same determinism
// contract as ParallelIdentify: the database is only read, so each slot
// equals a serial Decide call.
func (db *DB) ParallelDecide(errorStrings []*bitset.Set, workers int) []Verdict {
	out := make([]Verdict, len(errorStrings))
	pool.Map(workers, len(errorStrings), func(i int) {
		out[i] = db.Decide(errorStrings[i])
	})
	return out
}

// ParallelDecide runs Decide for every error string across a bounded worker
// pool; see DB.ParallelDecide.
func (x *IndexedDB) ParallelDecide(errorStrings []*bitset.Set, workers int) []Verdict {
	out := make([]Verdict, len(errorStrings))
	pool.Map(workers, len(errorStrings), func(i int) {
		out[i] = x.Decide(errorStrings[i])
	})
	return out
}
