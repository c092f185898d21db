package fingerprint

import (
	"fmt"
	"slices"

	"probablecause/internal/bitset"
	"probablecause/internal/minhash"
	"probablecause/internal/obs"
	"probablecause/internal/pool"
)

// Indexed-identify metrics: how many candidate entries the LSH index sends
// to verification per query (the work sublinear lookup saves versus the
// O(N) scan), how often the verified fallback scan runs, and how many
// queries went through the multi-probe expanded key set.
var (
	cIndexCandidates = obs.C("fingerprint.identify.candidates")
	cIndexFallbacks  = obs.C("fingerprint.identify.fallback_scans")
	cIdentifyProbes  = obs.C("fingerprint.identify.probes")
)

// IndexedConfig parameterizes an IndexedDB.
type IndexedConfig struct {
	// Scheme is the MinHash/LSH scheme used to sign fingerprints and error
	// strings; the zero value selects minhash.DefaultScheme.
	Scheme minhash.Scheme
	// NoFallback disables the verified full-scan fallback that runs when the
	// candidate buckets produce no match. The zero value — fallback ON — is
	// the correctness-preserving configuration: a hit the index misses is
	// still found by the scan, so Identify only ever differs from the plain
	// DB in speed. Set NoFallback for the pure-LSH ablation, where a recall
	// shortfall should be visible rather than papered over.
	NoFallback bool
	// Workers bounds the worker pool used to sign entries during bulk index
	// construction (IndexDB). 0 or 1 signs serially.
	Workers int
	// Probes enables multi-probe candidate expansion: signatures are indexed
	// and looked up under the leave-one-out key set as well as the full band
	// keys, so entries whose signature disagrees with the query in a single
	// row of a band still become candidates. Recall then holds as bands grow
	// more selective at 100k+ entries, at ×(1+Rows) index size. Requires
	// Scheme.Rows ≥ 2.
	Probes bool
}

// IndexedDB wraps a DB with a MinHash/LSH index over its fingerprints so
// Identify and IdentifyBest verify only the entries whose signature collides
// with the query in at least one band, instead of dense-scanning the whole
// database (Algorithm 2's loop made sublinear). Candidates are verified with
// the real Distance metric and visited in ascending entry order, so a hit
// returns the same (name, index) the plain scan would.
type IndexedDB struct {
	db    *DB
	cfg   IndexedConfig
	index *minhash.Index[int]
}

// NewIndexedDB returns an empty indexed database with the given
// identification threshold.
func NewIndexedDB(threshold float64, cfg IndexedConfig) (*IndexedDB, error) {
	return IndexDB(NewDB(threshold), cfg)
}

// IndexDB builds an LSH index over an existing database and returns the
// indexed view. The DB is shared, not copied: entries added through the
// returned IndexedDB land in db too. Entries must not be added directly to
// db afterwards — they would be invisible to the index.
func IndexDB(db *DB, cfg IndexedConfig) (*IndexedDB, error) {
	if cfg.Scheme == (minhash.Scheme{}) {
		cfg.Scheme = minhash.DefaultScheme
	}
	var ix *minhash.Index[int]
	var err error
	if cfg.Probes {
		ix, err = minhash.NewMultiProbeIndex[int](cfg.Scheme)
	} else {
		ix, err = minhash.NewIndex[int](cfg.Scheme)
	}
	if err != nil {
		return nil, err
	}
	x := &IndexedDB{db: db, cfg: cfg, index: ix}
	// Bulk build: signing dominates (Rows·Bands hashes over every set bit),
	// so fan it across the pool; the index insert itself is serial.
	sigs := make([]minhash.Signature, len(db.entries))
	pool.Map(cfg.Workers, len(db.entries), func(i int) {
		sigs[i] = x.sign(db.entries[i].FP)
	})
	for i, sig := range sigs {
		x.index.Add(sig, i)
	}
	return x, nil
}

// sign computes the MinHash signature of a dense set via its sparse view.
func (x *IndexedDB) sign(s *bitset.Set) minhash.Signature {
	return x.cfg.Scheme.Sign(bitset.Sparse(s.Positions()))
}

// Add registers a fingerprint under a name and indexes its signature.
func (x *IndexedDB) Add(name string, fp *bitset.Set) {
	x.index.Add(x.sign(fp), len(x.db.entries))
	x.db.Add(name, fp)
}

// Len returns the number of fingerprints in the database.
func (x *IndexedDB) Len() int { return x.db.Len() }

// DB returns the underlying database (shared, not copied).
func (x *IndexedDB) DB() *DB { return x.db }

// candidates returns the entry indices colliding with the error string in at
// least one band (or probe bucket), in ascending order so verification visits
// entries exactly as Algorithm 2's scan would. The index deduplicates the
// merged probe buckets before returning, so no entry is verified twice.
func (x *IndexedDB) candidates(errorString *bitset.Set) []int {
	out := x.index.Candidates(x.sign(errorString))
	sortInts(out)
	if obs.On() {
		cIndexCandidates.Add(int64(len(out)))
		if x.index.MultiProbe() {
			cIdentifyProbes.Inc()
		}
	}
	return out
}

// Identify implements Algorithm 2 over the candidate buckets: it returns the
// first candidate entry within the threshold of the error string. If no
// candidate matches and the fallback is enabled (the default), it runs the
// plain verified scan, so a true match missed by the index is still found.
func (x *IndexedDB) Identify(errorString *bitset.Set) (name string, index int, ok bool) {
	cands := x.candidates(errorString)
	for k, i := range cands {
		if !x.db.alive(i) {
			continue
		}
		e := x.db.entries[i]
		if Distance(errorString, e.FP) < x.db.threshold {
			if obs.On() {
				cIdentifyHit.Inc()
				if x.ambiguousAmong(errorString, cands[k+1:]) {
					cIdentifyAmbig.Inc()
				}
			}
			return e.Name, i, true
		}
	}
	if !x.cfg.NoFallback {
		if obs.On() {
			cIndexFallbacks.Inc()
		}
		return x.db.Identify(errorString)
	}
	if obs.On() {
		cIdentifyMiss.Inc()
	}
	return "", -1, false
}

// ambiguousAmong reports whether any of the remaining candidate entries also
// matches — the indexed analogue of DB.ambiguousAfter, already restricted to
// the only entries that could plausibly sit under the threshold.
func (x *IndexedDB) ambiguousAmong(errorString *bitset.Set, rest []int) bool {
	for _, i := range rest {
		if !x.db.alive(i) {
			continue
		}
		if Distance(errorString, x.db.entries[i].FP) < x.db.threshold {
			return true
		}
	}
	return false
}

// IdentifyBest returns the minimum-distance entry among the candidate
// buckets. When no candidate sits under the threshold and the fallback is
// enabled, the verified full scan runs instead, so the result is exact
// whenever it matters: a sub-threshold best is always in some candidate
// bucket or found by the fallback, and a reported miss carries the true
// global best. With NoFallback set the margin is computed over candidates
// only.
func (x *IndexedDB) IdentifyBest(errorString *bitset.Set) (name string, index int, dist float64) {
	v := x.Decide(errorString)
	return v.Name, v.Index, v.Distance
}

// ParallelIdentify runs Identify for every error string across a bounded
// worker pool and returns the matches in input order. See
// DB.ParallelIdentify for the determinism contract.
func (x *IndexedDB) ParallelIdentify(errorStrings []*bitset.Set, workers int) []Match {
	out := make([]Match, len(errorStrings))
	pool.Map(workers, len(errorStrings), func(i int) {
		name, idx, ok := x.Identify(errorStrings[i])
		out[i] = Match{Name: name, Index: idx, OK: ok}
	})
	return out
}

// Match is one batch-identification outcome: the fields Identify returns,
// in struct form so a batch can be returned as a slice.
type Match struct {
	Name  string
	Index int
	OK    bool
}

// ParallelIdentify runs Identify for every error string across a bounded
// worker pool (pool.Workers semantics: workers <= 0 means one per CPU) and
// returns the matches in input order. Each slot equals exactly what a serial
// Identify call on that error string returns — the database is only read, so
// fan-out cannot change any decision, just the wall-clock.
func (db *DB) ParallelIdentify(errorStrings []*bitset.Set, workers int) []Match {
	out := make([]Match, len(errorStrings))
	pool.Map(workers, len(errorStrings), func(i int) {
		name, idx, ok := db.Identify(errorStrings[i])
		out[i] = Match{Name: name, Index: idx, OK: ok}
	})
	return out
}

// sortIntsCutoff is the length above which sortInts switches from insertion
// sort to slices.Sort. Exact-index candidate lists run 0–2 entries, where
// insertion sort is branch-cheap; multi-probe expansion at 100k entries makes
// lists of dozens routine, where the O(n²) tail would dominate verification.
const sortIntsCutoff = 32

// sortInts sorts a candidate list: insertion sort for the short lists the
// exact index returns, slices.Sort beyond the cutoff.
func sortInts(s []int) {
	if len(s) > sortIntsCutoff {
		slices.Sort(s)
		return
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Identifier is the shared identification surface of the paper-comparison
// engines DB, IndexedDB and SlicedDB; experiment drivers and pcause take it
// so the scan, indexed and sliced paths are swappable.
type Identifier interface {
	Identify(errorString *bitset.Set) (name string, index int, ok bool)
	IdentifyBest(errorString *bitset.Set) (name string, index int, dist float64)
	Decide(errorString *bitset.Set) Verdict
	ParallelIdentify(errorStrings []*bitset.Set, workers int) []Match
	ParallelDecide(errorStrings []*bitset.Set, workers int) []Verdict
	Len() int
}

var (
	_ Identifier = (*DB)(nil)
	_ Identifier = (*IndexedDB)(nil)
)

// String renders a small summary for logs.
func (x *IndexedDB) String() string {
	return fmt.Sprintf("indexeddb(entries=%d, bands=%d, rows=%d, fallback=%v)",
		x.db.Len(), x.cfg.Scheme.Bands, x.cfg.Scheme.Rows, !x.cfg.NoFallback)
}
