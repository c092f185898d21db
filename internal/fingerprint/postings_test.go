package fingerprint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/prng"
)

// densitySet builds a deterministic set with each of nbits bits set with
// probability density.
func densitySet(seed uint64, nbits int, density float64) *bitset.Set {
	s := bitset.New(nbits)
	cut := uint64(density * float64(1<<32))
	for p := 0; p < nbits; p++ {
		if prng.Hash(seed, uint64(p))&0xFFFFFFFF < cut {
			s.Set(p)
		}
	}
	return s
}

// oracleEntry is one enrollment the property test tracks beside the
// ShardedDB under test.
type oracleEntry struct {
	id    int
	name  string
	fp    *bitset.Set
	alive bool
}

// oracleDecide answers q with the paper's dense scan, DB.Decide and
// DB.Identify, over the live entries in id order, reporting add-order ids.
func oracleDecide(threshold float64, log []oracleEntry, q *bitset.Set) (Verdict, string, int) {
	var live []oracleEntry
	for _, e := range log {
		if e.alive {
			live = append(live, e)
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].id < live[b].id })
	db := NewDB(threshold)
	for _, e := range live {
		db.Add(e.name, e.fp)
	}
	v := db.Decide(q)
	if v.Index >= 0 {
		v.Index = live[v.Index].id
	}
	name, idx, ok := db.Identify(q)
	if ok {
		idx = live[idx].id
	}
	return v, name, idx
}

// TestShardedPostingsMatchDB is the posting kernel's exactness property: a
// ShardedDB answers Decide (full Verdict, Matches included) and Identify
// exactly as the DB oracle's dense scan over the same live entries, at the
// paper's error densities (1, 5 and 10 % of 4096 bits), for tombstones below
// and across RebuildMinDead, for explicit AddWithID ids out of add order,
// for empty queries and empty entries, and for thresholds on both sides of 1.
func TestShardedPostingsMatchDB(t *testing.T) {
	const nbits = 4096
	for _, density := range []float64{0.01, 0.05, 0.10} {
		for _, threshold := range []float64{DefaultThreshold, 1.5} {
			for _, explicit := range []bool{false, true} {
				name := fmt.Sprintf("density=%v_threshold=%v_explicit=%v", density, threshold, explicit)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					runPostingsProperty(t, nbits, density, threshold, explicit)
				})
			}
		}
	}
}

func runPostingsProperty(t *testing.T, nbits int, density, threshold float64, explicit bool) {
	const rebuildMinDead = 5
	seed := prng.Hash(uint64(density*1000), uint64(threshold*10), map[bool]uint64{false: 1, true: 2}[explicit])
	src := prng.New(seed)
	sh, err := NewShardedDB(threshold, ShardedConfig{Shards: 3, RebuildMinDead: rebuildMinDead})
	if err != nil {
		t.Fatal(err)
	}
	var log []oracleEntry
	devices := make([]*bitset.Set, 24)
	for i := range devices {
		devices[i] = densitySet(seed+uint64(i), nbits, density)
	}
	devices[0] = bitset.New(nbits)  // an empty fingerprint
	devices[1] = devices[2].Clone() // twins: ambiguity is part of the property
	nextExplicit := 1000
	check := func(step int) {
		t.Helper()
		queries := []*bitset.Set{bitset.New(nbits), densitySet(seed^0xFACE, nbits, density)}
		for i := 0; i < len(devices); i += 3 {
			q := devices[i].Clone()
			// Same-device noise: drop a few bits, add a few more.
			for k := 0; k < 3; k++ {
				q.Clear(src.Intn(nbits))
				q.Set(src.Intn(nbits))
			}
			queries = append(queries, q)
		}
		for qi, q := range queries {
			want, wn, wi := oracleDecide(threshold, log, q)
			if got := sh.Decide(q); got != want {
				t.Fatalf("step %d query %d: Decide %+v, oracle %+v", step, qi, got, want)
			}
			if gn, gi, gok := sh.Identify(q); gn != wn || gi != wi || gok != (wi >= 0) {
				t.Fatalf("step %d query %d: Identify (%s,%d,%v), oracle (%s,%d)", step, qi, gn, gi, gok, wn, wi)
			}
		}
	}
	for step := 0; step < 160; step++ {
		switch op := src.Intn(10); {
		case op < 6:
			d := src.Intn(len(devices))
			name := fmt.Sprintf("dev%02d", d%17)
			id := 0
			if explicit {
				// Strided ids out of add order, as partitioned clusters
				// hand them out.
				nextExplicit += 7
				id = nextExplicit % 997
				for _, e := range log {
					if e.id == id {
						id += 1000
					}
				}
				sh.AddWithID(id, name, devices[d])
			} else {
				id = sh.Add(name, devices[d])
			}
			log = append(log, oracleEntry{id: id, name: name, fp: devices[d], alive: true})
		case op < 9:
			name := fmt.Sprintf("dev%02d", src.Intn(17))
			removed := sh.Remove(name)
			found := false
			for i := range log {
				if log[i].alive && log[i].name == name {
					log[i].alive, found = false, true
					break
				}
			}
			if removed != found {
				t.Fatalf("step %d: Remove(%s) = %v, oracle %v", step, name, removed, found)
			}
		default:
			check(step)
		}
	}
	check(-1)
	if sh.Rebuilds() == 0 {
		t.Fatal("no shard crossed RebuildMinDead — the compaction path went untested")
	}
}

// scanScore is ScorePostings' specification: distance() on every live
// entry, in index order, with the (distance, index) and minimum-index rules.
func scanScore(entries []*bitset.Set, dead []bool, q *bitset.Set, threshold float64) Score {
	s := Score{Best: -1, Distance: 2, First: -1}
	for i, e := range entries {
		if dead[i] {
			continue
		}
		d := distance(q, e)
		if d < threshold {
			s.Matches++
			if s.First < 0 {
				s.First = i
			}
		}
		if d < s.Distance {
			s.Best, s.Distance = i, d
		}
	}
	return s
}

// postingViewOf builds the kernel's view of entries the way a memory shard
// does, with identity ids.
func postingViewOf(entries []*bitset.Set, dead []bool) PostingView {
	lists := map[uint32][]uint32{}
	cards := make([]int, len(entries))
	for i, e := range entries {
		cards[i] = e.Count()
		e.ForEach(func(p int) bool {
			lists[uint32(p)] = append(lists[uint32(p)], uint32(i))
			return true
		})
	}
	return PostingView{
		Cards: cards,
		Dead:  dead,
		List:  func(p uint32) []uint32 { return lists[p] },
		ID:    func(i int) int { return i },
	}
}

// FuzzPostingKernel holds ScorePostings to the dense distance() scan: the
// same best entry, bit-identical distance, match count and first match, for
// arbitrary entries (empty ones included), tombstones, queries and
// thresholds. It then holds the fold to the paper's scan: the corpus split
// into components (checkFoldMatchesDB) answers as DB.Decide and
// DB.Identify do over the whole.
func FuzzPostingKernel(f *testing.F) {
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80}, uint16(100), uint8(3))
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00, 0xAA, 0x55}, uint16(1000), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, uint16(15000), uint8(9))
	// Five equal entries (one tombstoned) and an equal query: every live
	// entry matches, so the fold's tie-break and first-match rules decide
	// across components.
	f.Add(bytes.Repeat([]byte{0x5A, 0x0F, 0x33, 0xC1}, 18), uint16(100), uint8(0x02))
	f.Fuzz(func(t *testing.T, data []byte, thresholdMilli uint16, deadMask uint8) {
		const nbits = 96
		// Each 12-byte chunk is one 96-bit entry; the last chunk (or the
		// empty set) is the query.
		var sets []*bitset.Set
		for len(data) >= 12 {
			s := bitset.New(nbits)
			for w := 0; w < 3; w++ {
				word := binary.LittleEndian.Uint32(data[4*w:])
				for b := 0; b < 32; b++ {
					if word&(1<<b) != 0 {
						s.Set(32*w + b)
					}
				}
			}
			sets = append(sets, s)
			data = data[12:]
		}
		q := bitset.New(nbits)
		if len(sets) > 0 {
			q, sets = sets[len(sets)-1], sets[:len(sets)-1]
		}
		dead := make([]bool, len(sets))
		for i := range dead {
			dead[i] = deadMask&(1<<(i%8)) != 0
		}
		threshold := float64(thresholdMilli) / 1000
		want := scanScore(sets, dead, q, threshold)
		got := ScorePostings(postingViewOf(sets, dead), q.Positions(), threshold)
		got.Touched = 0
		if got != want {
			t.Fatalf("kernel %+v, scan %+v (threshold %v, %d entries)", got, want, threshold, len(sets))
		}
		checkFoldMatchesDB(t, sets, dead, q, threshold, prng.Hash(uint64(thresholdMilli), uint64(deadMask), uint64(len(sets))))
	})
}

// checkFoldMatchesDB splits the entries (id = index) into 1–4 components,
// each holding a random subset in random local order, folds them in random
// order, and requires the Answer to equal DB.Decide over the live entries
// and its first match to equal DB.Identify: how entries are spread over
// shards, memtable and segments can never change an answer.
func checkFoldMatchesDB(t *testing.T, sets []*bitset.Set, dead []bool, q *bitset.Set, threshold float64, seed uint64) {
	t.Helper()
	src := prng.New(seed)
	name := func(id int) string { return fmt.Sprintf("e%d", id%5) } // repeated names, as enrollments allow
	comps := make([][]int, 1+src.Intn(4))
	for _, id := range src.Perm(len(sets)) {
		c := src.Intn(len(comps))
		comps[c] = append(comps[c], id)
	}
	a := NewAnswer()
	for _, c := range src.Perm(len(comps)) {
		ids := comps[c]
		members := make([]*bitset.Set, len(ids))
		cdead := make([]bool, len(ids))
		for i, id := range ids {
			members[i], cdead[i] = sets[id], dead[id]
		}
		v := postingViewOf(members, cdead)
		v.ID = func(i int) int { return ids[i] }
		a.Fold(v, func(i int) string { return name(ids[i]) }, q.Positions(), threshold)
	}
	db := NewDB(threshold)
	var live []int
	for id, s := range sets {
		if !dead[id] {
			db.Add(name(id), s)
			live = append(live, id)
		}
	}
	want := db.Decide(q)
	if want.Index >= 0 {
		want.Index = live[want.Index]
	}
	if a.Verdict != want {
		t.Fatalf("folded %d components: verdict %+v, DB.Decide %+v", len(comps), a.Verdict, want)
	}
	wn, wi, ok := db.Identify(q)
	if ok {
		wi = live[wi]
	}
	if a.FirstName != wn || a.FirstID != wi {
		t.Fatalf("folded %d components: first (%s,%d), DB.Identify (%s,%d)", len(comps), a.FirstName, a.FirstID, wn, wi)
	}
}

// TestWideFingerprintHeap: enrolling one 2^22-bit fingerprint must grow the
// heap by a small multiple of its dense size (512 KiB), not by a per-bit
// posting header for every position of the width on every shard — which
// at the serving layer's 2^26-bit MaxLenBits would be gigabytes.
func TestWideFingerprintHeap(t *testing.T) {
	const nbits = 1 << 22
	fp := densitySet(0x71DE, nbits, 0.01) // the paper's ~1 % volatile-cell density
	sh, err := NewShardedDB(DefaultThreshold, ShardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	sh.Add("wide", fp)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	dense := uint64(nbits / 8)
	growth := uint64(0)
	if m1.HeapAlloc > m0.HeapAlloc {
		growth = m1.HeapAlloc - m0.HeapAlloc
	}
	t.Logf("heap growth %d B for a %d-bit fingerprint of %d bits set (dense size %d B)", growth, nbits, fp.Count(), dense)
	if growth > 8*dense {
		t.Fatalf("enrolling one %d-bit fingerprint grew the heap by %d B, over 8× its dense size %d B", nbits, growth, dense)
	}
	if v := sh.Decide(fp); !v.OK() || v.Distance != 0 {
		t.Fatalf("wide self-query: %+v", v)
	}
	runtime.KeepAlive(fp)
}

// TestPostingDirSwitchesToSparse: a directory indexing narrow sets densely
// moves every list into the map when a set wider than denseDirBits
// arrives, and answers every position as before.
func TestPostingDirSwitchesToSparse(t *testing.T) {
	var d postingDir
	want := map[uint32][]uint32{}
	add := func(local uint32, fp *bitset.Set) {
		d.add(local, fp)
		fp.ForEach(func(p int) bool {
			want[uint32(p)] = append(want[uint32(p)], local)
			return true
		})
	}
	add(0, densitySet(1, 4096, 0.05))
	add(1, densitySet(2, 4096, 0.05))
	if d.sparse != nil || len(d.dense) != 4096 {
		t.Fatalf("narrow sets: sparse=%v dense=%d, want a 4096-position dense table", d.sparse != nil, len(d.dense))
	}
	add(2, densitySet(3, 2*denseDirBits, 0.01))
	if d.sparse == nil || d.dense != nil {
		t.Fatal("a set wider than denseDirBits left the directory dense")
	}
	for p := uint32(0); p < 2*denseDirBits; p++ {
		if got := d.list(p); fmt.Sprint(got) != fmt.Sprint(want[p]) {
			t.Fatalf("position %d: list %v, want %v", p, got, want[p])
		}
	}
}
