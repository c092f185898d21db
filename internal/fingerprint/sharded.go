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
// Add sequence answers Decide/Identify exactly as the plain DB
// built from that sequence, with Verdict.Index and the identify index
// reported as the entry's add-order id (stable across Removes, equal to the
// DB slice index when nothing was removed). Cross-shard combination is by
// (distance, id) lexicographic minimum for best-match decisions and minimum
// id for first-match decisions (Answer.Fold), which reproduces the dense
// scan's first-strictly-better / first-on-tie behavior.
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
// and the cached cardinalities and posting lists the kernel reads.
type dbShard struct {
	mu    sync.RWMutex
	db    *DB
	ids   []int
	cards []int
	post  postingDir
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

func newShard(threshold float64) *dbShard {
	return &dbShard{db: NewDB(threshold)}
}

// add appends one entry to the shard (caller holds sh.mu).
func (sh *dbShard) add(id int, name string, fp *bitset.Set) {
	local := uint32(len(sh.db.entries))
	sh.db.Add(name, fp)
	sh.ids = append(sh.ids, id)
	sh.cards = append(sh.cards, fp.Count())
	sh.post.add(local, fp)
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

// name returns local entry i's name (caller holds sh.mu).
func (sh *dbShard) name(i int) string { return sh.db.entries[i].Name }

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
		s.shards[i] = newShard(threshold)
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
// meaningless. The tiered storage engine's memtable takes its global ids
// the same way. nextID advances past the explicit id so later plain Adds
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
// dropped, posting lists rebuilt) only once its tombstone count
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
	fresh := newShard(threshold)
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

// FoldInto folds every shard into a, each under its read lock; qpos holds
// the query's set positions, ascending. Under a request span sp each shard
// records a shard.identify child carrying the postings it touched. FoldInto
// records no counters: the caller records the whole decision once (the
// tiered storage engine folds its memtable this way).
func (s *ShardedDB) FoldInto(a *Answer, qpos []uint32, sp *obs.RSpan) {
	for i, sh := range s.shards {
		ssp := sp.Child("shard.identify")
		sh.mu.RLock()
		n := a.Fold(sh.view(), sh.name, qpos, s.threshold)
		sh.mu.RUnlock()
		if ssp != nil { // spares the untraced path boxing the attributes
			ssp.SetAttr("shard", i)
			ssp.SetAttr("postings", n)
			ssp.End()
		}
	}
}

// answer folds every shard into one Answer and records the decision. Under
// a request span (obs.StartRequest) the fold records its shard.identify
// spans and a decide span closes it; spans observe the fold, they never
// reorder it, so every projection below answers identically traced or not.
func (s *ShardedDB) answer(ctx context.Context, errorString *bitset.Set) Answer {
	sp := obs.SpanFrom(ctx)
	a := NewAnswer()
	s.FoldInto(&a, errorString.Positions(), sp)
	dsp := sp.Child("decide")
	a.Record()
	dsp.End()
	return a
}

// Decide runs the full identification decision across all shards: the
// (distance, id)-lexicographic best entry and the total sub-threshold match
// count.
func (s *ShardedDB) Decide(errorString *bitset.Set) Verdict {
	return s.answer(context.Background(), errorString).Verdict
}

// DecideCtx is Decide under the request span ctx carries, if any.
func (s *ShardedDB) DecideCtx(ctx context.Context, errorString *bitset.Set) Verdict {
	return s.answer(ctx, errorString).Verdict
}

// Identify implements Algorithm 2 across the shards: the minimum add-order
// id under the threshold — the entry the dense scan in add order would have
// accepted.
func (s *ShardedDB) Identify(errorString *bitset.Set) (name string, index int, ok bool) {
	a := s.answer(context.Background(), errorString)
	return a.FirstName, a.FirstID, a.FirstID >= 0
}

// ShardStats summarizes the sharded database for the /v1/db endpoint.
type ShardStats struct {
	Entries  int   `json:"entries"`
	PerShard []int `json:"per_shard"`
	// Indexed is always true — every shard decides from posting lists — and
	// stays on the wire for /v1/db clients.
	Indexed bool `json:"indexed"`
}

// Stats returns the entry distribution across shards.
func (s *ShardedDB) Stats() ShardStats {
	st := ShardStats{PerShard: make([]int, len(s.shards)), Indexed: true}
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
	return fmt.Sprintf("shardeddb(entries=%d, shards=%d)", s.Len(), len(s.shards))
}
