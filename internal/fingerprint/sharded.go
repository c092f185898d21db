package fingerprint

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"probablecause/internal/bitset"
	"probablecause/internal/minhash"
	"probablecause/internal/obs"
	"probablecause/internal/pool"
	"probablecause/internal/prng"
)

// Sharded-DB metrics: mutation volume and the per-shard balance the
// signature hashing is supposed to deliver.
var (
	cShardAdds    = obs.C("fingerprint.sharded.adds")
	cShardRemoves = obs.C("fingerprint.sharded.removes")
)

// DefaultShards is the shard count a zero ShardedConfig selects: enough that
// per-shard write locks stop serializing a multi-core serving workload,
// small enough that the per-query fan-out over shards stays negligible next
// to one Distance call.
const DefaultShards = 8

// ShardedConfig parameterizes a ShardedDB.
type ShardedConfig struct {
	// Shards is the number of shards; 0 selects DefaultShards.
	Shards int
	// Plain drops the per-shard posting lists: every shard answers by dense
	// Algorithm 2/3 scan of its DB. The ablation configuration, and the
	// dense-scan oracle the equivalence suites compare against.
	Plain bool
	// RebuildMinDead is the per-shard tombstone count at which Remove
	// physically compacts the shard (drops dead entries and rebuilds its
	// posting lists). Below it, Remove only tombstones — O(1) instead of
	// O(shard size) — and lookups skip the dead entries. 0 selects
	// DefaultRebuildMinDead; 1 restores the eager rebuild-per-Remove behavior.
	RebuildMinDead int
}

// DefaultRebuildMinDead is the tombstone threshold a zero RebuildMinDead
// selects: large enough that bursty churn amortizes the O(shard) rebuild over
// many Removes, small enough that dead entries never dominate a shard's scan
// or memory footprint.
const DefaultRebuildMinDead = 64

// ShardedDB distributes a fingerprint database over N shards, each an
// independently locked DB with per-bit-position posting lists, so concurrent
// adds and lookups scale across cores: queries take per-shard read locks and
// mutations write-lock only the one shard owning the entry. Entries are
// assigned to shards by a hash folded over the MinHash signature's band
// keys (minhash.DefaultScheme), computed once per Add.
//
// Every shard decides with the exact posting-list kernel (ScorePostings):
// one intersection count per entry from the lists of the query's positions,
// then Algorithm 3's division on the cached cardinalities. There is no
// candidate stage and no fallback sweep, so every verdict — Matches
// included — is exact, whatever the query's error level.
//
// Determinism contract: a ShardedDB built by any interleaving of the same
// Add sequence answers Decide/Identify/IdentifyBest exactly as the plain DB
// built from that sequence, with Verdict.Index and the identify index
// reported as the entry's add-order id (stable across Removes, equal to the
// DB slice index when nothing was removed). Cross-shard combination is by
// (distance, id) lexicographic minimum for best-match decisions and minimum
// id for first-match decisions, which reproduces the dense scan's
// first-strictly-better / first-on-tie behavior.
type ShardedDB struct {
	threshold float64
	cfg       ShardedConfig
	shards    []*dbShard

	mu       sync.Mutex       // serializes mutations and the name bookkeeping
	names    map[string][]int // name → owning shard of each live entry, in add order
	nextID   int
	count    atomic.Int64
	gen      atomic.Int64
	rebuilds atomic.Int64 // physical shard compactions triggered by Remove
}

// dbShard is one shard: a plain DB, the local-index → add-order-id mapping,
// and — unless the shard is plain — the cached cardinalities and posting
// lists the kernel reads.
type dbShard struct {
	mu    sync.RWMutex
	db    *DB
	ids   []int
	cards []int
	post  *postingDir // nil on plain shards
}

// denseDirBits is the widest fingerprint a posting directory indexes by a
// dense per-position table. A dense header costs 24 bytes per bit position
// per shard whether or not any entry sets it — 768 KiB at a 4 KiB page's
// 32,768 bits — which undercuts a hash map's per-used-position cost once
// most positions are in use, as they are at the paper's densities. Wider
// sets (MaxLenBits admits 2^26 bits, where a dense table would cost 1.5 GiB
// per shard on the first Add) switch the directory to a map, whose headers
// grow only with the positions actually set.
const denseDirBits = 1 << 15

// postingDir maps a bit position to the local indices of the entries
// carrying it, in add order.
type postingDir struct {
	dense  [][]uint32          // by position, while every set is ≤ denseDirBits wide
	sparse map[uint32][]uint32 // once a wider set arrived
}

// add appends local to the list of every position fp sets.
func (d *postingDir) add(local uint32, fp *bitset.Set) {
	if d.sparse == nil && fp.Len() > denseDirBits {
		d.sparse = make(map[uint32][]uint32)
		for p, l := range d.dense {
			if len(l) > 0 {
				d.sparse[uint32(p)] = l
			}
		}
		d.dense = nil
	}
	if d.sparse == nil && len(d.dense) < fp.Len() {
		d.dense = append(d.dense, make([][]uint32, fp.Len()-len(d.dense))...)
	}
	fp.ForEach(func(p int) bool {
		if d.sparse != nil {
			d.sparse[uint32(p)] = append(d.sparse[uint32(p)], local)
		} else {
			d.dense[p] = append(d.dense[p], local)
		}
		return true
	})
}

// list returns position p's entries (nil when none sets it).
func (d *postingDir) list(p uint32) []uint32 {
	if d.sparse != nil {
		return d.sparse[p]
	}
	if int(p) < len(d.dense) {
		return d.dense[p]
	}
	return nil
}

func newShard(threshold float64, plain bool) *dbShard {
	sh := &dbShard{db: NewDB(threshold)}
	if !plain {
		sh.post = new(postingDir)
	}
	return sh
}

// add appends one entry to the shard (caller holds sh.mu).
func (sh *dbShard) add(id int, name string, fp *bitset.Set) {
	local := uint32(len(sh.db.entries))
	sh.db.Add(name, fp)
	sh.ids = append(sh.ids, id)
	if sh.post != nil {
		sh.cards = append(sh.cards, fp.Count())
		sh.post.add(local, fp)
	}
}

// view exposes the shard to the posting kernel (caller holds sh.mu).
func (sh *dbShard) view() PostingView {
	v := PostingView{
		Cards: sh.cards,
		List:  sh.post.list,
		ID:    func(i int) int { return sh.ids[i] },
	}
	if sh.db.deadCount > 0 {
		v.Dead = sh.db.dead
	}
	return v
}

// NewShardedDB returns an empty sharded database using the given
// identification threshold.
func NewShardedDB(threshold float64, cfg ShardedConfig) (*ShardedDB, error) {
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("fingerprint: shard count %d", cfg.Shards)
	}
	if cfg.RebuildMinDead == 0 {
		cfg.RebuildMinDead = DefaultRebuildMinDead
	}
	if cfg.RebuildMinDead < 0 {
		return nil, fmt.Errorf("fingerprint: rebuild threshold %d", cfg.RebuildMinDead)
	}
	s := &ShardedDB{
		threshold: threshold,
		cfg:       cfg,
		shards:    make([]*dbShard, cfg.Shards),
		names:     make(map[string][]int),
	}
	for i := range s.shards {
		s.shards[i] = newShard(threshold, cfg.Plain)
	}
	return s, nil
}

// ShardDB builds a ShardedDB holding db's entries in add order, using db's
// threshold. The entries are shared, not copied; db itself is left alone.
func ShardDB(db *DB, cfg ShardedConfig) (*ShardedDB, error) {
	s, err := NewShardedDB(db.threshold, cfg)
	if err != nil {
		return nil, err
	}
	for _, e := range db.entries {
		s.Add(e.Name, e.FP)
	}
	return s, nil
}

// Threshold returns the identification threshold.
func (s *ShardedDB) Threshold() float64 { return s.threshold }

// Threshold returns the identification threshold.
func (db *DB) Threshold() float64 { return db.threshold }

// Len returns the number of fingerprints across all shards.
func (s *ShardedDB) Len() int { return int(s.count.Load()) }

// Generation counts mutations (Adds and Removes). Result caches key their
// entries to the generation observed before the lookup and drop writes from
// a stale generation, so a mutation can never resurrect a pre-mutation
// verdict.
func (s *ShardedDB) Generation() int64 { return s.gen.Load() }

// shardFor folds the fingerprint's signature band keys into a shard
// assignment.
func (s *ShardedDB) shardFor(fp *bitset.Set) int {
	scheme := minhash.DefaultScheme
	h := uint64(0x5113A6DE)
	for _, k := range scheme.BandKeys(scheme.Sign(bitset.Sparse(fp.Positions()))) {
		h = prng.Mix64(h ^ k)
	}
	return int(h % uint64(len(s.shards)))
}

// Add registers a fingerprint under a name and returns the entry's
// stable add-order id (the id Verdict.Index reports). Duplicate names are
// permitted; Get and Remove address the earliest-added live entry under
// the name.
func (s *ShardedDB) Add(name string, fp *bitset.Set) int {
	si := s.shardFor(fp)
	s.mu.Lock()
	id := s.nextID
	s.addLocked(si, id, name, fp)
	s.mu.Unlock()
	return id
}

// AddWithID registers a fingerprint under an explicit, caller-chosen id
// instead of the next dense add-order id. It exists for oracle
// construction: a single-node database rebuilt from a partitioned
// cluster's enrollments must carry each entry under the same global id
// the cluster reported (see IDNamespace), or verdict byte-comparison is
// meaningless. nextID advances past the explicit id so later plain Adds
// never collide. The caller owns id uniqueness.
func (s *ShardedDB) AddWithID(id int, name string, fp *bitset.Set) {
	si := s.shardFor(fp)
	s.mu.Lock()
	s.addLocked(si, id, name, fp)
	s.mu.Unlock()
}

// addLocked places one entry under id in shard si (caller holds s.mu).
func (s *ShardedDB) addLocked(si, id int, name string, fp *bitset.Set) {
	if id >= s.nextID {
		s.nextID = id + 1
	}
	s.names[name] = append(s.names[name], si)
	sh := s.shards[si]
	sh.mu.Lock()
	sh.add(id, name, fp)
	sh.mu.Unlock()
	s.count.Add(1)
	s.gen.Add(1)
	if obs.On() {
		cShardAdds.Inc()
	}
}

// Get returns the fingerprint stored under name, or ok=false.
func (s *ShardedDB) Get(name string) (*bitset.Set, bool) {
	s.mu.Lock()
	lst := s.names[name]
	if len(lst) == 0 {
		s.mu.Unlock()
		return nil, false
	}
	sh := s.shards[lst[0]]
	s.mu.Unlock()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.db.Get(name)
}

// Remove deletes the earliest-added live entry under name and reports
// whether one existed. The entry is tombstoned — O(1), verdicts exclude it
// immediately — and the owning shard is physically compacted (dead entries
// dropped, LSH index and sliced arena rebuilt) only once its tombstone count
// reaches ShardedConfig.RebuildMinDead, so removal churn no longer pays an
// O(shard size) rebuild per call. Only the owning shard is ever write-locked;
// the other shards keep serving.
func (s *ShardedDB) Remove(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	lst := s.names[name]
	if len(lst) == 0 {
		return false
	}
	si := lst[0]
	if len(lst) == 1 {
		delete(s.names, name)
	} else {
		s.names[name] = lst[1:]
	}
	sh := s.shards[si]
	sh.mu.Lock()
	local := sh.db.byName[name]
	sh.db.kill(local)
	if sh.db.deadCount >= s.cfg.RebuildMinDead {
		sh.compact(s.threshold)
		s.rebuilds.Add(1)
	}
	sh.mu.Unlock()
	s.count.Add(-1)
	s.gen.Add(1)
	if obs.On() {
		cShardRemoves.Inc()
	}
	return true
}

// compact drops the shard's tombstoned entries: live entries move to a fresh
// shard in local order with their add-order ids, and the posting lists are
// rebuilt over the survivors (O(shard size), amortized over RebuildMinDead
// tombstone-only Removes). Caller holds sh.mu.
func (sh *dbShard) compact(threshold float64) {
	fresh := newShard(threshold, sh.post == nil)
	for i, e := range sh.db.entries {
		if sh.db.alive(i) {
			fresh.add(sh.ids[i], e.Name, e.FP)
		}
	}
	sh.db, sh.ids, sh.cards, sh.post = fresh.db, fresh.ids, fresh.cards, fresh.post
}

// Rebuilds returns the number of physical shard compactions Remove has
// triggered — the regression hook proving tombstoning defers the O(shard)
// rebuild until RebuildMinDead removals accumulate.
func (s *ShardedDB) Rebuilds() int64 { return s.rebuilds.Load() }

// positions returns the query's set positions for the posting kernel, or
// nil on plain shards, which never read them.
func (s *ShardedDB) positions(errorString *bitset.Set) []uint32 {
	if s.cfg.Plain {
		return nil
	}
	return errorString.Positions()
}

// decideRaw answers over one shard without obs verdict counters, mapping the
// best local index to its add-order id; touched counts the postings visited.
func (sh *dbShard) decideRaw(errorString *bitset.Set, qpos []uint32) (v Verdict, touched int) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.post == nil {
		v = sh.db.decideRaw(errorString)
		if v.Index >= 0 {
			v.Index = sh.ids[v.Index]
		}
		return v, 0
	}
	sc := ScorePostings(sh.view(), qpos, sh.db.threshold)
	v = Verdict{Index: -1, Distance: 2, Matches: sc.Matches}
	if sc.Best >= 0 {
		v.Name, v.Index, v.Distance = sh.db.entries[sc.Best].Name, sh.ids[sc.Best], sc.Distance
	}
	return v, sc.Touched
}

// firstMatch answers Algorithm 2 over one shard: the minimum-id entry under
// the threshold as (name, add-order id), with the shard's match count
// (exact on posting shards; 1 for a plain shard's first hit, which stops
// scanning there) and the postings visited.
func (sh *dbShard) firstMatch(errorString *bitset.Set, qpos []uint32) (name string, id, matches, touched int) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.post == nil {
		name, local, ok := sh.db.firstMatch(errorString)
		if !ok {
			return "", -1, 0, 0
		}
		return name, sh.ids[local], 1, 0
	}
	sc := ScorePostings(sh.view(), qpos, sh.db.threshold)
	if sc.First < 0 {
		return "", -1, 0, sc.Touched
	}
	return sh.db.entries[sc.First].Name, sh.ids[sc.First], sc.Matches, sc.Touched
}

// MergeVerdict folds one component's answer into the running cross-component
// verdict: match counts accumulate and the (distance, id)-lexicographic
// minimum wins — the single combination rule Decide, DecideCtx, and the
// tiered storage engine's memtable+segment combine share, so neither tracing
// nor flush timing can ever change an answer.
func MergeVerdict(v *Verdict, sv Verdict) {
	v.Matches += sv.Matches
	if sv.Index < 0 {
		return
	}
	if sv.Distance < v.Distance || (sv.Distance == v.Distance && (v.Index < 0 || sv.Index < v.Index)) {
		v.Name, v.Index, v.Distance = sv.Name, sv.Index, sv.Distance
	}
}

// Decide runs the full identification decision across all shards: the
// (distance, id)-lexicographic best entry and the total sub-threshold match
// count.
func (s *ShardedDB) Decide(errorString *bitset.Set) Verdict {
	v := s.DecideRaw(errorString)
	recordVerdict(v)
	return v
}

// DecideRaw is Decide without the obs verdict counters, for callers (the
// tiered storage engine) that merge this database's answer with other
// components' before recording one decision.
func (s *ShardedDB) DecideRaw(errorString *bitset.Set) Verdict {
	qpos := s.positions(errorString)
	v := Verdict{Index: -1, Distance: 2}
	touched := 0
	for _, sh := range s.shards {
		sv, n := sh.decideRaw(errorString, qpos)
		MergeVerdict(&v, sv)
		touched += n
	}
	RecordTouched(touched)
	return v
}

// FirstMatch is Identify without the obs counters: the minimum add-order id
// under the threshold, for callers that merge first-match answers across
// components.
func (s *ShardedDB) FirstMatch(errorString *bitset.Set) (name string, index int, ok bool) {
	name, index, _ = s.firstMatch(errorString)
	return name, index, index >= 0
}

// firstMatch combines the shards' first matches: the minimum add-order id
// wins, and matches sums the shards' match counts.
func (s *ShardedDB) firstMatch(errorString *bitset.Set) (name string, index, matches int) {
	qpos := s.positions(errorString)
	index = -1
	touched := 0
	for _, sh := range s.shards {
		n, id, m, t := sh.firstMatch(errorString, qpos)
		matches += m
		touched += t
		if id >= 0 && (index < 0 || id < index) {
			name, index = n, id
		}
	}
	RecordTouched(touched)
	return name, index, matches
}

// DecideCtx is Decide with request-scoped tracing: when ctx carries a
// request span (obs.StartRequest), the shard fan-out records one
// shard.identify child span per shard (with the postings it touched) and a
// decide span around the cross-shard combine. The verdict is identical to
// Decide's — spans observe the scan, they never reorder it.
func (s *ShardedDB) DecideCtx(ctx context.Context, errorString *bitset.Set) Verdict {
	parent := obs.SpanFrom(ctx)
	if parent == nil {
		return s.Decide(errorString)
	}
	qpos := s.positions(errorString)
	svs := make([]Verdict, len(s.shards))
	touched := 0
	for i, sh := range s.shards {
		sp := parent.Child("shard.identify")
		sp.SetAttr("shard", i)
		var n int
		svs[i], n = sh.decideRaw(errorString, qpos)
		sp.SetAttr("postings", n)
		sp.End()
		touched += n
	}
	dsp := parent.Child("decide")
	v := Verdict{Index: -1, Distance: 2}
	for _, sv := range svs {
		MergeVerdict(&v, sv)
	}
	dsp.End()
	RecordTouched(touched)
	recordVerdict(v)
	return v
}

// Identify implements Algorithm 2 across the shards: every shard reports its
// minimum-id match and the minimum add-order id wins — the entry the dense
// scan in add order would have accepted. The obs ambiguity counter fires
// when more than one entry matched (exact on posting shards; on plain
// shards, which stop at their first hit, when hits surface from more than
// one shard).
func (s *ShardedDB) Identify(errorString *bitset.Set) (name string, index int, ok bool) {
	name, index, matches := s.firstMatch(errorString)
	if obs.On() {
		if index < 0 {
			cIdentifyMiss.Inc()
		} else {
			cIdentifyHit.Inc()
			if matches > 1 {
				cIdentifyAmbig.Inc()
			}
		}
	}
	return name, index, index >= 0
}

// IdentifyBest returns the minimum-distance entry across all shards; see
// Decide for the combination rule.
func (s *ShardedDB) IdentifyBest(errorString *bitset.Set) (name string, index int, dist float64) {
	v := s.Decide(errorString)
	return v.Name, v.Index, v.Distance
}

// ParallelIdentify runs Identify for every error string across a bounded
// worker pool; see DB.ParallelIdentify for the determinism contract.
func (s *ShardedDB) ParallelIdentify(errorStrings []*bitset.Set, workers int) []Match {
	out := make([]Match, len(errorStrings))
	pool.Map(workers, len(errorStrings), func(i int) {
		name, idx, ok := s.Identify(errorStrings[i])
		out[i] = Match{Name: name, Index: idx, OK: ok}
	})
	return out
}

// ParallelDecide runs Decide for every error string across a bounded worker
// pool; each slot equals a serial Decide call.
func (s *ShardedDB) ParallelDecide(errorStrings []*bitset.Set, workers int) []Verdict {
	out := make([]Verdict, len(errorStrings))
	pool.Map(workers, len(errorStrings), func(i int) {
		out[i] = s.Decide(errorStrings[i])
	})
	return out
}

// ParallelDecideCtx is ParallelDecide with per-query trace contexts: slot i
// answers errorStrings[i] under ctxs[i] (nil or missing contexts fall back
// untraced), so a coalesced batch records each originating request's shard
// fan-out in that request's own span tree.
func (s *ShardedDB) ParallelDecideCtx(ctxs []context.Context, errorStrings []*bitset.Set, workers int) []Verdict {
	out := make([]Verdict, len(errorStrings))
	pool.Map(workers, len(errorStrings), func(i int) {
		ctx := context.Background()
		if i < len(ctxs) && ctxs[i] != nil {
			ctx = ctxs[i]
		}
		out[i] = s.DecideCtx(ctx, errorStrings[i])
	})
	return out
}

// ShardStats summarizes the sharded database for the /v1/db endpoint.
type ShardStats struct {
	Entries  int   `json:"entries"`
	PerShard []int `json:"per_shard"`
	Indexed  bool  `json:"indexed"`
}

// Stats returns the entry distribution across shards.
func (s *ShardedDB) Stats() ShardStats {
	st := ShardStats{PerShard: make([]int, len(s.shards)), Indexed: !s.cfg.Plain}
	for i, sh := range s.shards {
		sh.mu.RLock()
		st.PerShard[i] = sh.db.Len()
		st.Entries += sh.db.Len()
		sh.mu.RUnlock()
	}
	return st
}

// Export reassembles a plain DB holding the live entries in add order —
// the snapshot pcserved writes on shutdown. Fingerprints are shared, not
// copied; mutations are blocked for the duration.
func (s *ShardedDB) Export() *DB {
	db := NewDB(s.threshold)
	for _, t := range s.ExportIDs() {
		db.Add(t.Name, t.FP)
	}
	return db
}

// IDEntry is one exported entry with its stable add-order id — the triple a
// storage backend persists so segment files can answer with the same ids the
// in-memory database reports.
type IDEntry struct {
	ID   int
	Name string
	FP   *bitset.Set
}

// ExportIDs returns the live entries sorted by add-order id. Fingerprints are
// shared, not copied; mutations are blocked for the duration.
func (s *ShardedDB) ExportIDs() []IDEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := make([]IDEntry, 0, s.count.Load())
	for _, sh := range s.shards {
		sh.mu.RLock()
		for i, e := range sh.db.entries {
			if !sh.db.alive(i) {
				continue
			}
			all = append(all, IDEntry{ID: sh.ids[i], Name: e.Name, FP: e.FP})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// String renders a small summary for logs.
func (s *ShardedDB) String() string {
	return fmt.Sprintf("shardeddb(entries=%d, shards=%d, indexed=%v)",
		s.Len(), len(s.shards), !s.cfg.Plain)
}
