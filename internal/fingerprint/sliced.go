package fingerprint

import (
	"fmt"

	"probablecause/internal/bitset"
	"probablecause/internal/obs"
	"probablecause/internal/pool"
)

// Sliced-identify metrics: blocks skipped by the cardinality-bound prune
// (entries whose words were never touched) and the batch sizes the block
// kernel verified per sweep, so /metrics shows how much work slicing and
// pruning save.
var (
	cIdentifyPruned = obs.C("fingerprint.identify.pruned")
	hBlockBatch     = obs.H("fingerprint.identify.block_batch")
)

// SlicedConfig parameterizes a SlicedDB.
type SlicedConfig struct {
	// Index configures the LSH candidate stage (scheme, fallback, workers,
	// multi-probe), exactly as for IndexedDB.
	Index IndexedConfig
	// BlockEntries is the sliced block width B; 0 selects
	// bitset.DefaultSlicedEntries.
	BlockEntries int
}

// SlicedDB is an IndexedDB whose fallback scan runs over a band-major
// bit-sliced copy of the fingerprints (bitset.SlicedArena) instead of the
// entry slice. Candidate verification is unchanged — LSH candidates are few
// and scattered, so the scalar kernel already serves them well — but the
// fallback, which at 100k entries dominates every miss, becomes a blocked
// sweep: one pass over the query's words verifies a whole block, and the
// cardinality-bound prune skips blocks whose threshold is provably
// unreachable without touching their words.
//
// The verdict contract is bit-identical to DB/IndexedDB: the block kernel
// returns the exact (minCard, maxCard, diff) triples the scalar
// MinCardAndNotCount returns, the distance division runs on the same
// integers, and blocks are visited in add order. Two scans differ only in
// which is faster.
//
// The prune is sound only for Identify's first-match semantics (a miss
// reports no distance). Decide and IdentifyBest promise the exact global
// best on a miss, and a pruned block — excluded from *matching* — can still
// hold the minimum distance, so their fallback sweeps every block unpruned.
//
// SlicedDB requires all fingerprints to share one bit length (the corpus
// invariant every experiment and the serving layer already maintain); the
// arena panics on a mismatched Add.
type SlicedDB struct {
	x     *IndexedDB
	arena *bitset.SlicedArena
}

// NewSlicedDB returns an empty sliced database with the given identification
// threshold.
func NewSlicedDB(threshold float64, cfg SlicedConfig) (*SlicedDB, error) {
	return SliceDB(NewDB(threshold), cfg)
}

// SliceDB builds the LSH index and the bit-sliced arena over an existing
// database and returns the sliced view. The DB is shared, not copied; as
// with IndexDB, entries must not be added directly to db afterwards.
func SliceDB(db *DB, cfg SlicedConfig) (*SlicedDB, error) {
	x, err := IndexDB(db, cfg.Index)
	if err != nil {
		return nil, err
	}
	arena := bitset.NewSlicedArena(0, cfg.BlockEntries)
	for _, e := range db.entries {
		if n := db.entries[0].FP.Len(); e.FP.Len() != n {
			return nil, fmt.Errorf("fingerprint: sliced backend needs one bit length, have %d and %d", n, e.FP.Len())
		}
		arena.Add(e.FP)
	}
	return &SlicedDB{x: x, arena: arena}, nil
}

// Add registers a fingerprint under a name, indexes its signature, and packs
// it into the sliced arena.
func (s *SlicedDB) Add(name string, fp *bitset.Set) {
	s.x.Add(name, fp)
	s.arena.Add(fp)
}

// Len returns the number of fingerprints in the database.
func (s *SlicedDB) Len() int { return s.x.db.Len() }

// DB returns the underlying database (shared, not copied).
func (s *SlicedDB) DB() *DB { return s.x.db }

// kernelDistance converts one block-kernel triple into Algorithm 3's
// distance, replicating distance()'s arithmetic exactly: same integers, same
// division, bit-identical float64.
func kernelDistance(r bitset.KernelResult) float64 {
	if r.MinCard == 0 {
		if r.MaxCard == 0 {
			return 0
		}
		return 1
	}
	return float64(r.Diff) / float64(r.MinCard)
}

// pruned reports whether no entry of the block can sit under the threshold,
// from the block's cached cardinalities and one sweep over its OR-union
// (1/B of the words a full kernel pass reads).
//
// An entry matches iff d = (minCard − |q∩e|)/minCard < t with
// minCard = min(|e|, |q|), i.e. iff |q∩e| > minCard·(1−t). Every member's
// intersection is bounded by I = |q ∩ union|, and every member's minCard is
// at least cLow = min(blockMinCard, |q|), so when
//
//	cLow·(1−t) ≥ I
//
// no member can cross the threshold and the whole block is skipped. t is
// nudged up by 1e-9 relative slack so float rounding can only make the prune
// more conservative, never unsound. An empty query never prunes: cLow = 0
// would discard the d = 0 match an empty entry owes it.
func (s *SlicedDB) pruned(blk *bitset.SlicedBlock, q *bitset.Set, qc int) bool {
	if qc == 0 {
		return false
	}
	cLow := blk.MinCard()
	if qc < cLow {
		cLow = qc
	}
	tUp := s.x.db.threshold * (1 + 1e-9)
	return float64(cLow)*(1-tUp) >= float64(blk.UnionAndCount(q))
}

// Identify implements Algorithm 2 over the candidate buckets, exactly as
// IndexedDB.Identify; on a candidate miss with the fallback enabled, the
// verified scan runs over the sliced arena with block pruning. First-match
// semantics make the prune safe: a pruned block by construction holds no
// entry under the threshold, so the first match found is the first match
// the dense scan would find.
func (s *SlicedDB) Identify(errorString *bitset.Set) (name string, index int, ok bool) {
	cands := s.x.candidates(errorString)
	for k, i := range cands {
		if !s.x.db.alive(i) {
			continue
		}
		e := s.x.db.entries[i]
		if Distance(errorString, e.FP) < s.x.db.threshold {
			if obs.On() {
				cIdentifyHit.Inc()
				if s.x.ambiguousAmong(errorString, cands[k+1:]) {
					cIdentifyAmbig.Inc()
				}
			}
			return e.Name, i, true
		}
	}
	if !s.x.cfg.NoFallback {
		if obs.On() {
			cIndexFallbacks.Inc()
		}
		return s.prunedFirstMatch(errorString)
	}
	if obs.On() {
		cIdentifyMiss.Inc()
	}
	return "", -1, false
}

// prunedFirstMatch is DB.Identify over the sliced arena: blocks in add
// order, skipping those the cardinality bound excludes, block kernel on the
// rest, first entry under the threshold wins.
func (s *SlicedDB) prunedFirstMatch(q *bitset.Set) (name string, index int, ok bool) {
	db := s.x.db
	qc := q.Count()
	per := s.arena.BlockEntries()
	var dst []bitset.KernelResult
	for bi := 0; bi < s.arena.NumBlocks(); bi++ {
		blk := s.arena.Block(bi)
		if s.pruned(blk, q, qc) {
			if obs.On() {
				cIdentifyPruned.Inc()
			}
			continue
		}
		dst = blk.MinCardAndNotCounts(q, dst)
		if obs.On() {
			hBlockBatch.Observe(int64(blk.Len()))
		}
		for j, r := range dst {
			i := bi*per + j
			if !db.alive(i) {
				continue
			}
			if kernelDistance(r) < db.threshold {
				if obs.On() {
					cIdentifyHit.Inc()
					if db.ambiguousAfter(q, i) {
						cIdentifyAmbig.Inc()
					}
				}
				return db.entries[i].Name, i, true
			}
		}
	}
	if obs.On() {
		cIdentifyMiss.Inc()
	}
	return "", -1, false
}

// IdentifyBest returns the minimum-distance entry; see IndexedDB.IdentifyBest
// for the exactness contract.
func (s *SlicedDB) IdentifyBest(errorString *bitset.Set) (name string, index int, dist float64) {
	v := s.Decide(errorString)
	return v.Name, v.Index, v.Distance
}

// Decide is IndexedDB.Decide with the sliced fallback: candidates first,
// then — when none matches and the fallback is enabled — a full, unpruned
// block-kernel sweep, so a reported miss carries the true global best. The
// Matches caveat of the indexed path applies unchanged.
func (s *SlicedDB) Decide(errorString *bitset.Set) Verdict {
	v := s.decideRaw(errorString)
	recordVerdict(v)
	return v
}

func (s *SlicedDB) decideRaw(errorString *bitset.Set) Verdict {
	v := Verdict{Index: -1, Distance: 2}
	for _, i := range s.x.candidates(errorString) {
		if !s.x.db.alive(i) {
			continue
		}
		e := s.x.db.entries[i]
		d := Distance(errorString, e.FP)
		if d < s.x.db.threshold {
			v.Matches++
		}
		if d < v.Distance {
			v.Name, v.Index, v.Distance = e.Name, i, d
		}
	}
	if v.Matches == 0 && !s.x.cfg.NoFallback {
		if obs.On() {
			cIndexFallbacks.Inc()
		}
		return s.sweepDecide(errorString)
	}
	return v
}

// sweepDecide is DB.decideRaw over the sliced arena: every block, no prune —
// exact best-on-miss reporting cannot exclude a block merely because nothing
// in it matches, since the global minimum distance may still live there.
func (s *SlicedDB) sweepDecide(q *bitset.Set) Verdict {
	db := s.x.db
	v := Verdict{Index: -1, Distance: 2}
	per := s.arena.BlockEntries()
	var dst []bitset.KernelResult
	for bi := 0; bi < s.arena.NumBlocks(); bi++ {
		blk := s.arena.Block(bi)
		dst = blk.MinCardAndNotCounts(q, dst)
		if obs.On() {
			hBlockBatch.Observe(int64(blk.Len()))
		}
		for j, r := range dst {
			i := bi*per + j
			if !db.alive(i) {
				continue
			}
			d := kernelDistance(r)
			if d < db.threshold {
				v.Matches++
			}
			if d < v.Distance {
				v.Name, v.Index, v.Distance = db.entries[i].Name, i, d
			}
		}
	}
	return v
}

// firstMatch is the sliced analogue of IndexedDB.firstMatch, for callers
// that aggregate decisions without obs counters.
func (s *SlicedDB) firstMatch(errorString *bitset.Set) (name string, index int, ok bool) {
	for _, i := range s.x.candidates(errorString) {
		if !s.x.db.alive(i) {
			continue
		}
		e := s.x.db.entries[i]
		if Distance(errorString, e.FP) < s.x.db.threshold {
			return e.Name, i, true
		}
	}
	if !s.x.cfg.NoFallback {
		if obs.On() {
			cIndexFallbacks.Inc()
		}
		qc := errorString.Count()
		per := s.arena.BlockEntries()
		var dst []bitset.KernelResult
		for bi := 0; bi < s.arena.NumBlocks(); bi++ {
			blk := s.arena.Block(bi)
			if s.pruned(blk, errorString, qc) {
				if obs.On() {
					cIdentifyPruned.Inc()
				}
				continue
			}
			dst = blk.MinCardAndNotCounts(errorString, dst)
			for j, r := range dst {
				i := bi*per + j
				if !s.x.db.alive(i) {
					continue
				}
				if kernelDistance(r) < s.x.db.threshold {
					return s.x.db.entries[i].Name, i, true
				}
			}
		}
	}
	return "", -1, false
}

// ParallelIdentify runs Identify across a bounded worker pool; see
// DB.ParallelIdentify for the determinism contract.
func (s *SlicedDB) ParallelIdentify(errorStrings []*bitset.Set, workers int) []Match {
	out := make([]Match, len(errorStrings))
	pool.Map(workers, len(errorStrings), func(i int) {
		name, idx, ok := s.Identify(errorStrings[i])
		out[i] = Match{Name: name, Index: idx, OK: ok}
	})
	return out
}

// ParallelDecide runs Decide across a bounded worker pool; see
// DB.ParallelDecide.
func (s *SlicedDB) ParallelDecide(errorStrings []*bitset.Set, workers int) []Verdict {
	out := make([]Verdict, len(errorStrings))
	pool.Map(workers, len(errorStrings), func(i int) {
		out[i] = s.Decide(errorStrings[i])
	})
	return out
}

var _ Identifier = (*SlicedDB)(nil)

// String renders a small summary for logs.
func (s *SlicedDB) String() string {
	return fmt.Sprintf("sliceddb(entries=%d, blocks=%d×%d, bands=%d, rows=%d, probes=%v, fallback=%v)",
		s.x.db.Len(), s.arena.NumBlocks(), s.arena.BlockEntries(),
		s.x.cfg.Scheme.Bands, s.x.cfg.Scheme.Rows, s.x.index.MultiProbe(), !s.x.cfg.NoFallback)
}
