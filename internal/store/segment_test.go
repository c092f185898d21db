package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/prng"
)

// testFP builds a deterministic ~density-dense fingerprint.
func testFP(seed uint64, nbits, ones int) *bitset.Set {
	src := prng.New(seed)
	pos := make([]uint32, 0, ones)
	seen := make(map[int]bool, ones)
	for len(pos) < ones {
		p := src.Intn(nbits)
		if seen[p] {
			continue
		}
		seen[p] = true
		pos = append(pos, uint32(p))
	}
	return bitset.FromPositions(nbits, pos)
}

// noisy flips a few of fp's set bits off and a few clear bits on —
// a same-device error string within the threshold.
func noisy(fp *bitset.Set, seed uint64, drop int) *bitset.Set {
	src := prng.New(seed ^ 0xD5A7)
	out := fp.Clone()
	pos := fp.Positions()
	for i := 0; i < drop && i < len(pos); i++ {
		out.Clear(int(pos[src.Intn(len(pos))]))
	}
	return out
}

func testEntries(n, nbits int) []fingerprint.IDEntry {
	entries := make([]fingerprint.IDEntry, n)
	for i := range entries {
		entries[i] = fingerprint.IDEntry{
			ID:   i*3 + 7, // non-dense ids: segments must carry them verbatim
			Name: fmt.Sprintf("dev%03d", i),
			FP:   testFP(uint64(i)+0xBEEF, nbits, 40),
		}
	}
	return entries
}

func writeTestSegment(t *testing.T, entries []fingerprint.IDEntry) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg-000000.pcseg")
	if err := WriteSegment(path, entries, 8); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSegmentRoundTrip: write → load → every entry's id, name, and bits
// survive, and the posting kernel returns the full verdict a plain DB
// computes over the same entries.
func TestSegmentRoundTrip(t *testing.T) {
	const n, nbits = 50, 2048
	entries := testEntries(n, nbits)
	path := writeTestSegment(t, entries)
	seg, err := LoadSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.Salvaged() {
		t.Fatal("clean segment reported salvaged")
	}
	if seg.Len() != n {
		t.Fatalf("Len = %d, want %d", seg.Len(), n)
	}
	for i, e := range entries {
		if seg.ID(i) != e.ID || seg.Name(i) != e.Name {
			t.Fatalf("entry %d: (%d,%s) want (%d,%s)", i, seg.ID(i), seg.Name(i), e.ID, e.Name)
		}
		if !seg.FP(i).Equal(e.FP) {
			t.Fatalf("entry %d: fingerprint diverged", i)
		}
	}
	// Verdicts: a noisy same-device query must hit the right entry with the
	// exact distance the scalar path computes.
	thr := fingerprint.DefaultThreshold
	checkSegmentAgainstScan(t, seg, entries, thr)
	// Name lookup and tombstones.
	if pos, ok := seg.findName("dev007"); !ok || pos != 7 {
		t.Fatalf("findName(dev007) = (%d,%v)", pos, ok)
	}
	seg.kill(7)
	if _, ok := seg.findName("dev007"); ok {
		t.Fatal("tombstoned name still found")
	}
	q := noisy(entries[7].FP, 7, 2)
	if v := segAnswer(seg, q, thr).Verdict; v.OK() && v.Index == entries[7].ID {
		t.Fatalf("tombstoned entry still matches: %+v", v)
	}
	if seg.Live() != n-1 {
		t.Fatalf("Live = %d, want %d", seg.Live(), n-1)
	}
}

// segAnswer folds seg alone into an Answer — the tiered engine's
// per-segment step.
func segAnswer(seg *Segment, q *bitset.Set, thr float64) fingerprint.Answer {
	a := fingerprint.NewAnswer()
	a.Fold(seg.view(), seg.Name, q.Positions(), thr)
	return a
}

// checkSegmentAgainstScan holds seg, which must hold exactly entries with
// none tombstoned, to entries and to the paper's scan: every seg.FP equals
// its entry's, and the posting kernel answers noisy, foreign and empty
// queries as checkKernelMatchesScan requires.
func checkSegmentAgainstScan(t *testing.T, seg *Segment, entries []fingerprint.IDEntry, thr float64) {
	t.Helper()
	if seg.Len() != len(entries) {
		t.Fatalf("segment holds %d entries, want %d", seg.Len(), len(entries))
	}
	nbits := entries[0].FP.Len()
	var queries []*bitset.Set
	for i, e := range entries {
		if !seg.FP(i).Equal(e.FP) {
			t.Fatalf("entry %d: fingerprint diverged", i)
		}
		queries = append(queries, noisy(e.FP, uint64(i), 2))
	}
	queries = append(queries, testFP(0xABCDE, nbits, 40))
	checkKernelMatchesScan(t, seg, queries, thr)
}

// TestSegmentVerify: a clean file verifies; flipped bytes anywhere in the
// committed region are caught.
func TestSegmentVerify(t *testing.T) {
	entries := testEntries(30, 1024)
	path := writeTestSegment(t, entries)
	if err := VerifySegment(path); err != nil {
		t.Fatalf("clean segment failed verify: %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the entry log: interior corruption, refused with
	// a CorruptError carrying the record offset.
	corrupt := append([]byte(nil), blob...)
	corrupt[headerSize+20] ^= 0xFF
	bad := filepath.Join(t.TempDir(), "seg-000001.pcseg")
	if err := os.WriteFile(bad, corrupt, 0o666); err != nil {
		t.Fatal(err)
	}
	_, err = LoadSegment(bad)
	var ce *CorruptError
	if !asCorrupt(err, &ce) {
		t.Fatalf("interior log corruption: got %v, want CorruptError", err)
	}
	if ce.Offset < headerSize || ce.Offset >= int64(len(blob)) {
		t.Fatalf("corruption offset %d out of file range", ce.Offset)
	}
}

func asCorrupt(err error, ce **CorruptError) bool {
	if err == nil {
		return false
	}
	c, ok := err.(*CorruptError)
	if ok {
		*ce = c
	}
	return ok
}

// TestSegmentTornTail: truncating a segment (losing the footer) salvages the
// longest valid prefix of the entry log instead of failing.
func TestSegmentTornTail(t *testing.T) {
	entries := testEntries(20, 1024)
	path := writeTestSegment(t, entries)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{4, 2, 3} {
		cut := headerSize + (len(blob)-headerSize)*(frac-1)/frac
		torn := filepath.Join(t.TempDir(), "seg-000002.pcseg")
		if err := os.WriteFile(torn, blob[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		seg, err := LoadSegment(torn)
		if err != nil {
			t.Fatalf("torn at %d: %v", cut, err)
		}
		if !seg.Salvaged() {
			t.Fatalf("torn at %d: not reported salvaged", cut)
		}
		// Whatever survived must be an exact prefix.
		for i := 0; i < seg.Len(); i++ {
			if seg.ID(i) != entries[i].ID || seg.Name(i) != entries[i].Name || !seg.FP(i).Equal(entries[i].FP) {
				t.Fatalf("torn at %d: salvaged entry %d diverges", cut, i)
			}
		}
		// And a salvaged file must fail strict verification.
		if err := VerifySegment(torn); err == nil {
			t.Fatal("salvaged segment passed strict verify")
		}
		seg.Close()
	}
}

// TestSegmentRejectsEmpty: segments hold at least one entry by contract.
func TestSegmentRejectsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-000000.pcseg")
	if err := WriteSegment(path, nil, 8); err == nil {
		t.Fatal("empty segment accepted")
	}
}

// TestSegmentPostingsRefused: a postings section damaged under an intact
// footer is refused as corruption, whether its CRC or its shape gives it
// away, and VerifySegment cross-checks postings that are self-consistent
// but disagree with the entry log.
func TestSegmentPostingsRefused(t *testing.T) {
	entries := testEntries(30, 1024)
	path := writeTestSegment(t, entries)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	start := postingsStart(t, blob)
	for _, off := range []int{start, start + 9, len(blob) - footerSize - 1} {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x01
		bad := filepath.Join(t.TempDir(), "seg-000001.pcseg")
		if err := os.WriteFile(bad, mut, 0o666); err != nil {
			t.Fatal(err)
		}
		var ce *CorruptError
		if _, err := LoadSegment(bad); !asCorrupt(err, &ce) || ce.Offset != int64(start) {
			t.Fatalf("postings flip at %d: got %v, want CorruptError at %d", off, err, start)
		}
		if err := VerifySegment(bad); err == nil {
			t.Fatalf("postings flip at %d passed verify", off)
		}
	}

	// Postings that are well-formed and checksummed but point at the wrong
	// entry: Load cannot tell, VerifySegment's log cross-check must.
	col := buildColumnar(entries, 1024, 8)
	for k := range col.postKeys {
		lo, hi := col.postOffs[k], col.postOffs[k+1]
		if hi-lo == 1 && col.post[lo] > 0 && !entries[col.post[lo]-1].FP.Get(int(col.postKeys[k])) {
			col.post[lo]-- // still in range, still a one-entry list
			break
		}
	}
	lying := filepath.Join(t.TempDir(), "seg-000002.pcseg")
	f, err := os.Create(lying)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSegmentTo(f, entries, col, 1024, 8); err != nil {
		t.Fatal(err)
	}
	f.Close()
	seg, err := LoadSegment(lying)
	if err != nil {
		t.Fatalf("well-formed lying postings refused at load: %v", err)
	}
	seg.Close()
	var ce *CorruptError
	if err := VerifySegment(lying); !asCorrupt(err, &ce) {
		t.Fatalf("VerifySegment on diverging postings: got %v, want CorruptError", err)
	}
}

// TestSegmentTornRebuildsPostings: a torn version 2 file salvages its
// prefix with heap-rebuilt postings that answer exactly like a dense scan of
// the salvaged entries.
func TestSegmentTornRebuildsPostings(t *testing.T) {
	entries := testEntries(24, 1024)
	blob, err := os.ReadFile(writeTestSegment(t, entries))
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "seg-000003.pcseg")
	if err := os.WriteFile(torn, blob[:postingsStart(t, blob)+16], 0o666); err != nil {
		t.Fatal(err)
	}
	seg, err := LoadSegment(torn)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if !seg.Salvaged() || seg.Len() != len(entries) {
		t.Fatalf("torn inside postings: salvaged=%v len=%d, want all %d entries salvaged", seg.Salvaged(), seg.Len(), len(entries))
	}
	checkSegmentAgainstScan(t, seg, entries, fingerprint.DefaultThreshold)
}

// copyDir copies a flat fixture directory into a fresh temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	names, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		blob, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), blob, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// segmentVersions returns the header version of every segment file in dir.
func segmentVersions(t *testing.T, dir string) []uint32 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segmentPattern))
	if err != nil {
		t.Fatal(err)
	}
	var out []uint32
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, uint32(blob[8])|uint32(blob[9])<<8|uint32(blob[10])<<16|uint32(blob[11])<<24)
	}
	return out
}

// TestSegmentV1Upgrade: testdata/v1store is a tiered store committed by the
// version 1 writer (24 entries of testEntries(24, 1024) added in order, one
// flush, then dev005 removed and checkpointed as a manifest tombstone). It
// must open by rebuilding its postings from the verified log, verify, answer
// with the full verdict of a memory backend fed the same operations, and be
// rewritten as version 2 by the next compaction.
func TestSegmentV1Upgrade(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "v1store"))
	if got := segmentVersions(t, dir); len(got) != 1 || got[0] != 1 {
		t.Fatalf("fixture segment versions %v, want [1]", got)
	}
	if err := VerifyDir(dir); err != nil {
		t.Fatalf("v1 fixture fails verify: %v", err)
	}
	dbCfg := DBConfig{Threshold: fingerprint.DefaultThreshold, Shards: 1, BlockEntries: 8}
	tb, err := OpenTiered(Config{Dir: dir, FlushEntries: 1 << 20, CompactSegments: 1}, dbCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	oracle, err := OpenMemory(dbCfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := testEntries(24, 1024)
	for _, e := range entries {
		oracle.Add(e.Name, e.FP)
	}
	oracle.Remove("dev005")
	if tb.Watermark() != 9 || tb.Len() != oracle.Len() {
		t.Fatalf("recovered watermark %d len %d, want 9 and %d", tb.Watermark(), tb.Len(), oracle.Len())
	}
	check := func(stage string) {
		t.Helper()
		qs := []*bitset.Set{bitset.New(1024), testFP(0x5151, 1024, 40)}
		for i, e := range entries {
			qs = append(qs, noisy(e.FP, uint64(i), 3))
		}
		for qi, q := range qs {
			if got, want := tb.Decide(q), oracle.Decide(q); got != want {
				t.Fatalf("%s query %d: Decide %+v, oracle %+v", stage, qi, got, want)
			}
			gn, gi, gok := tb.Identify(q)
			wn, wi, wok := oracle.Identify(q)
			if gn != wn || gi != wi || gok != wok {
				t.Fatalf("%s query %d: Identify (%s,%d,%v), oracle (%s,%d,%v)", stage, qi, gn, gi, gok, wn, wi, wok)
			}
		}
	}
	check("v1")
	extra := testFP(0xE0E0, 1024, 40)
	tb.Add("late", extra)
	oracle.Add("late", extra)
	if err := tb.Checkpoint(10); err != nil {
		t.Fatal(err)
	}
	if got := segmentVersions(t, dir); len(got) != 1 || got[0] != segVersion {
		t.Fatalf("after compaction segment versions %v, want [%d]", got, segVersion)
	}
	if err := VerifyDir(dir); err != nil {
		t.Fatalf("compacted store fails verify: %v", err)
	}
	check("v2")
}
