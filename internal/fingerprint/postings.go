// postings.go: the exact posting-list kernel every serving tier decides
// with — memory shards here, mmap'd segment files in internal/store.
package fingerprint

import (
	"sync"

	"probablecause/internal/obs"
)

// cPostingsTouched counts the posting-list entries the kernel visited. It is
// added once per decision (Answer.Record, the sum over the decision's
// components), never per posting, so the counter costs one atomic add on
// the hot path.
var cPostingsTouched = obs.C("fingerprint.postings.touched")

// PostingView is one component the posting kernel scores — a memory shard
// or a segment file — addressed by local entry index 0..len(Cards)-1.
//
// Algorithm 3 needs one number per (query, entry) pair beyond the cached
// cardinalities: the intersection |q∩e|, because the difference count of
// whichever set is smaller is min(|q|,|e|) − |q∩e|. Per-bit-position lists
// of entry indices give every intersection exactly by walking only the
// query's positions, at any query error level and with no candidate stage
// (DESIGN.md §15).
type PostingView struct {
	// Cards holds every local entry's cardinality, tombstoned ones included.
	Cards []int
	// Dead flags tombstoned entries; nil when none is.
	Dead []bool
	// List returns the local indices of the entries with bit p set; each
	// index appears at most once per list. Positions no entry carries (or
	// beyond the component's bit length) return nil.
	List func(p uint32) []uint32
	// ID maps a local index to its add-order id, the tie-break key. It is
	// called only for sub-threshold entries and distance ties.
	ID func(i int) int
}

// Score is the kernel's answer over one component, in local indices.
type Score struct {
	// Best is the (distance, id)-minimum live entry; -1 when none is live.
	Best int
	// Distance is Best's Algorithm 3 distance; 2 when Best is -1.
	Distance float64
	// Matches counts live entries under the threshold.
	Matches int
	// First is the minimum-id live entry under the threshold (Algorithm 2's
	// accept); -1 when none matches.
	First int
	// Touched counts the posting entries the accumulation visited.
	Touched int
}

// scratchPool recycles the per-query intersection counts. Counts are uint32
// because an intersection is bounded by the smaller cardinality, and
// fingerprints may be as wide as the serving layer's 2^26-bit MaxLenBits —
// a uint16 would wrap above 65,535 shared bits. Every query leaves its
// counts zeroed for the next.
var scratchPool = sync.Pool{New: func() any { return new([]uint32) }}

// ScorePostings runs the exact posting-list kernel over one component: it
// accumulates |q∩e| for every entry from the lists of the query's positions
// q (ascending, as bitset.Set.Positions returns them), then makes one pass
// over the cached cardinalities deriving each distance exactly as Algorithm
// 3 does — float64(n−inter)/float64(n) with n = min(|q|,|e|) is the same
// integer division distance() performs, degenerate cases included — so
// every distance, and with it every verdict, is bit-identical to a dense
// scan (DESIGN.md §15).
func ScorePostings(v PostingView, q []uint32, threshold float64) Score {
	buf := scratchPool.Get().(*[]uint32)
	if cap(*buf) < len(v.Cards) {
		*buf = make([]uint32, len(v.Cards))
	}
	counts := (*buf)[:len(v.Cards)]
	s := Score{Best: -1, Distance: 2, First: -1}
	for _, p := range q {
		l := v.List(p)
		s.Touched += len(l)
		for _, e := range l {
			counts[e]++
		}
	}
	qc := len(q)
	for i, inter := range counts {
		if v.Dead != nil && v.Dead[i] {
			continue
		}
		d := kernelDist(v.Cards[i], qc, int(inter))
		if d < threshold {
			s.Matches++
			if s.First < 0 || v.ID(i) < v.ID(s.First) {
				s.First = i
			}
		}
		if d < s.Distance || (d == s.Distance && v.ID(i) < v.ID(s.Best)) {
			s.Best, s.Distance = i, d
		}
	}
	clear(counts)
	scratchPool.Put(buf)
	return s
}

// kernelDist is distance() from cardinalities and the intersection count:
// the smaller set's difference count is n − inter, divided by n, with
// Distance's degenerate cases for an empty smaller set.
func kernelDist(card, qc, inter int) float64 {
	n, m := card, qc
	if n > m {
		n, m = m, n
	}
	if n == 0 {
		if m == 0 {
			return 0
		}
		return 1
	}
	return float64(n-inter) / float64(n)
}

// MergeVerdict folds one component's verdict into the running
// cross-component verdict: match counts add up and the (distance,
// id)-lexicographic minimum wins. Answer.Fold and the scatter router's
// partition merge share it.
func MergeVerdict(v *Verdict, sv Verdict) {
	v.Matches += sv.Matches
	if sv.Index < 0 {
		return
	}
	if sv.Distance < v.Distance || (sv.Distance == v.Distance && (v.Index < 0 || sv.Index < v.Index)) {
		v.Name, v.Index, v.Distance = sv.Name, sv.Index, sv.Distance
	}
}

// Answer is one query's decision folded over any number of components —
// memory shards, a memtable, segment files. It carries Algorithm 3's best
// match with the sub-threshold count (the Verdict), Algorithm 2's accept
// (the minimum-id match) and the postings the folds touched. Each merge
// rule — a (distance, id) minimum, a minimum id, two sums — is order-free,
// so neither fold order nor how the entries are split into components
// (shard count, flush and compaction timing) can change an answer.
type Answer struct {
	Verdict
	// FirstName and FirstID locate the minimum-id live entry under the
	// threshold; FirstID is -1 on a miss.
	FirstName string
	FirstID   int
	// Touched counts the posting entries the folds visited.
	Touched int
}

// NewAnswer returns the answer over no components: a miss with no best
// entry.
func NewAnswer() Answer {
	return Answer{Verdict: Verdict{Index: -1, Distance: 2}, FirstID: -1}
}

// Fold scores one component with ScorePostings and merges the result into
// a. name maps a local index to its entry's name; it is called only for
// the component's best and first entries. Fold returns the postings this
// component touched.
func (a *Answer) Fold(v PostingView, name func(int) string, qpos []uint32, threshold float64) int {
	sc := ScorePostings(v, qpos, threshold)
	sv := Verdict{Index: -1, Distance: sc.Distance, Matches: sc.Matches}
	if sc.Best >= 0 {
		sv.Name, sv.Index = name(sc.Best), v.ID(sc.Best)
	}
	MergeVerdict(&a.Verdict, sv)
	if sc.First >= 0 {
		if id := v.ID(sc.First); a.FirstID < 0 || id < a.FirstID {
			a.FirstName, a.FirstID = name(sc.First), id
		}
	}
	a.Touched += sc.Touched
	return sc.Touched
}

// Record adds the decision to the identify hit/miss/ambiguous counters and
// its postings to fingerprint.postings.touched. Whoever folds a query
// records it exactly once.
func (a *Answer) Record() {
	if !obs.On() {
		return
	}
	cPostingsTouched.Add(int64(a.Touched))
	recordVerdict(a.Verdict)
}
