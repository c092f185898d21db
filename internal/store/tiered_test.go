package store

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/obs"
)

func openTestTiered(t *testing.T, dir string, compact int) *Tiered {
	t.Helper()
	tb, err := OpenTiered(
		Config{Dir: dir, FlushEntries: 8, CompactSegments: compact},
		DBConfig{Threshold: fingerprint.DefaultThreshold, Shards: 1, BlockEntries: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestTieredFlushRecover: enroll → flush → reopen recovers ids, names,
// watermark, and verdicts across the memtable/segment boundary.
func TestTieredFlushRecover(t *testing.T) {
	dir := t.TempDir()
	tb := openTestTiered(t, dir, 8)
	const n, nbits = 20, 1024
	entries := testEntries(n, nbits)
	for i, e := range entries {
		if id := tb.Add(e.Name, e.FP); id != i {
			t.Fatalf("Add %d returned id %d", i, id)
		}
	}
	if err := tb.Checkpoint(42); err != nil {
		t.Fatal(err)
	}
	if tb.SegmentCount() != 1 {
		t.Fatalf("SegmentCount = %d after flush", tb.SegmentCount())
	}
	// Post-flush adds land above the flushed range.
	extraFP := testFP(0x777, nbits, 40)
	if id := tb.Add("extra", extraFP); id != n {
		t.Fatalf("post-flush Add returned id %d, want %d", id, n)
	}
	// Flushed entries still answer identically.
	for i := 0; i < n; i += 5 {
		q := noisy(entries[i].FP, uint64(i), 2)
		if name, id, ok := tb.Identify(q); !ok || id != i || name != entries[i].Name {
			t.Fatalf("post-flush Identify(%d) = (%s,%d,%v)", i, name, id, ok)
		}
	}
	tb.Close()

	// Reopen: manifest restores watermark, next id, and the flushed segment;
	// the unflushed "extra" entry is gone (it was never checkpointed — the
	// serving layer replays it from the WAL).
	tb = openTestTiered(t, dir, 8)
	defer tb.Close()
	if tb.Watermark() != 42 {
		t.Fatalf("recovered watermark = %d", tb.Watermark())
	}
	if tb.Len() != n {
		t.Fatalf("recovered Len = %d, want %d", tb.Len(), n)
	}
	if _, ok := tb.Get("extra"); ok {
		t.Fatal("unflushed entry survived reopen without WAL replay")
	}
	// Re-adding it (as WAL replay would) reassigns the same id.
	if id := tb.Add("extra", extraFP); id != n {
		t.Fatalf("replayed Add returned id %d, want %d", id, n)
	}
	for i := 0; i < n; i += 5 {
		q := noisy(entries[i].FP, uint64(i), 2)
		if name, id, ok := tb.Identify(q); !ok || id != i || name != entries[i].Name {
			t.Fatalf("recovered Identify(%d) = (%s,%d,%v)", i, name, id, ok)
		}
	}
	if err := VerifyDir(dir); err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
}

// TestTieredTombstonePersistence: removes against flushed segments survive the
// next checkpoint + reopen; removes against the memtable never hit disk.
func TestTieredTombstonePersistence(t *testing.T) {
	dir := t.TempDir()
	tb := openTestTiered(t, dir, 8)
	entries := testEntries(12, 1024)
	for _, e := range entries {
		tb.Add(e.Name, e.FP)
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	// Tombstone a flushed entry and a fresh memtable entry.
	tb.Add("young", testFP(0x51, 1024, 40))
	if !tb.Remove(entries[3].Name) || !tb.Remove("young") {
		t.Fatal("Remove failed")
	}
	if tb.Len() != 11 {
		t.Fatalf("Len = %d after removes", tb.Len())
	}
	if err := tb.Flush(); err != nil { // persists the segment tombstone
		t.Fatal(err)
	}
	tb.Close()

	tb = openTestTiered(t, dir, 8)
	defer tb.Close()
	if tb.Len() != 11 {
		t.Fatalf("recovered Len = %d, want 11", tb.Len())
	}
	if _, ok := tb.Get(entries[3].Name); ok {
		t.Fatal("tombstoned segment entry resurrected on reopen")
	}
	if _, ok := tb.Get("young"); ok {
		t.Fatal("removed memtable entry resurrected")
	}
	// The survivor next to the tombstone keeps its id.
	if name, id, ok := tb.Identify(noisy(entries[4].FP, 4, 2)); !ok || id != 4 || name != entries[4].Name {
		t.Fatalf("Identify(4) = (%s,%d,%v)", name, id, ok)
	}
}

// TestTieredCompaction: pushing past CompactSegments merges adjacent segments,
// drops tombstones physically, and preserves every verdict and id.
func TestTieredCompaction(t *testing.T) {
	dir := t.TempDir()
	tb := openTestTiered(t, dir, 2)
	defer tb.Close()
	const batches, per, nbits = 5, 6, 1024
	entries := testEntries(batches*per, nbits)
	for b := 0; b < batches; b++ {
		for _, e := range entries[b*per : (b+1)*per] {
			tb.Add(e.Name, e.FP)
		}
		if b == 2 {
			// Tombstone an already-flushed entry mid-sequence.
			if !tb.Remove(entries[1].Name) {
				t.Fatal("Remove failed")
			}
		}
		if err := tb.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.SegmentCount(); got > 2 {
		t.Fatalf("SegmentCount = %d after compaction (cap 2)", got)
	}
	if tb.Len() != batches*per-1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	for i, e := range entries {
		q := noisy(e.FP, uint64(i), 2)
		name, id, ok := tb.Identify(q)
		if i == 1 {
			if ok && id == 1 {
				t.Fatal("tombstoned entry matched after compaction")
			}
			continue
		}
		if !ok || id != i || name != e.Name {
			t.Fatalf("post-compaction Identify(%d) = (%s,%d,%v)", i, name, id, ok)
		}
	}
	// Compaction dropped the merged tombstone from the persisted set.
	man, ok, err := loadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("manifest: %v %v", ok, err)
	}
	for _, id := range man.Tombstones {
		if id == 1 {
			t.Fatal("physically dropped tombstone still persisted")
		}
	}
	if err := VerifyDir(dir); err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
}

// TestTieredOrphanSweep: a segment file not named by the manifest — a flush
// that crashed before commit — is deleted at open.
func TestTieredOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	tb := openTestTiered(t, dir, 8)
	entries := testEntries(10, 1024)
	for _, e := range entries {
		tb.Add(e.Name, e.FP)
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	tb.Close()
	// Plant an orphan: valid segment bytes under an uncommitted name.
	committed := filepath.Join(dir, segmentName(0))
	blob, err := os.ReadFile(committed)
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, segmentName(9))
	if err := os.WriteFile(orphan, blob, 0o666); err != nil {
		t.Fatal(err)
	}
	tb = openTestTiered(t, dir, 8)
	defer tb.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan not swept: %v", err)
	}
	if tb.Len() != 10 {
		t.Fatalf("Len = %d after sweep", tb.Len())
	}
	// The orphan's sequence number must not be reused blindly below committed
	// ones — next flush still lands on a fresh name and the store verifies.
	tb.Add("late", testFP(0x99, 1024, 40))
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := VerifyDir(dir); err != nil {
		t.Fatalf("VerifyDir after sweep+flush: %v", err)
	}
}

// TestTieredRefusesTornCommitted: a committed segment that lost its footer
// (classified torn) must refuse to open, pointing at triage — never silently
// serve a prefix.
func TestTieredRefusesTornCommitted(t *testing.T) {
	dir := t.TempDir()
	tb := openTestTiered(t, dir, 8)
	for _, e := range testEntries(10, 1024) {
		tb.Add(e.Name, e.FP)
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	tb.Close()
	path := filepath.Join(dir, segmentName(0))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)*2/3], 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTiered(Config{Dir: dir}, DBConfig{Threshold: fingerprint.DefaultThreshold, Shards: 1}); err == nil {
		t.Fatal("torn committed segment opened without error")
	}
	if err := VerifyDir(dir); err == nil {
		t.Fatal("VerifyDir passed a torn committed segment")
	}
}

// TestTieredEmptyFlush: checkpointing an empty memtable just advances the
// watermark — no empty segment files.
func TestTieredEmptyFlush(t *testing.T) {
	dir := t.TempDir()
	tb := openTestTiered(t, dir, 8)
	defer tb.Close()
	if err := tb.Checkpoint(7); err != nil {
		t.Fatal(err)
	}
	if tb.SegmentCount() != 0 {
		t.Fatalf("empty flush created %d segments", tb.SegmentCount())
	}
	if tb.Watermark() != 7 {
		t.Fatalf("watermark = %d", tb.Watermark())
	}
	matches, _ := filepath.Glob(filepath.Join(dir, segmentPattern))
	if len(matches) != 0 {
		t.Fatalf("segment files on disk: %v", matches)
	}
}

// TestTieredGenerationStability: flush and compaction must not advance the
// generation (cached verdicts stay valid); Add/Remove must.
func TestTieredGenerationStability(t *testing.T) {
	dir := t.TempDir()
	tb := openTestTiered(t, dir, 1)
	defer tb.Close()
	for _, e := range testEntries(10, 1024) {
		tb.Add(e.Name, e.FP)
	}
	gen := tb.Generation()
	if gen != 10 {
		t.Fatalf("generation = %d after 10 adds", gen)
	}
	if err := tb.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, e := range testEntries(10, 1024)[:5] {
		tb.Add(e.Name+"-b", e.FP)
	}
	if err := tb.Flush(); err != nil { // triggers compaction (cap 1)
		t.Fatal(err)
	}
	if got := tb.Generation(); got != gen+5 {
		t.Fatalf("generation moved by flush/compact: %d, want %d", got, gen+5)
	}
	if !tb.Remove("dev003") {
		t.Fatal("Remove failed")
	}
	if got := tb.Generation(); got != gen+6 {
		t.Fatalf("generation = %d after remove, want %d", got, gen+6)
	}
}

// TestBackendsCountVerdicts: with obs on, a hit, a miss and an ambiguous
// query move fingerprint.identify.hit/miss/ambiguous identically on the
// memory and tiered backends — each Decide, DecideCtx and Identify counted
// exactly once. The tiered twins straddle the segment/memtable boundary, so
// the ambiguity is only visible to the merged answer.
func TestBackendsCountVerdicts(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	const nbits = 1024
	twin, other := testFP(0x7171, nbits, 40), testFP(0x0770, nbits, 40)
	queries := []*bitset.Set{noisy(other, 1, 2), testFP(0x3155, nbits, 40), noisy(twin, 2, 2)}
	counters := func() [3]int64 {
		return [3]int64{
			obs.C("fingerprint.identify.hit").Value(),
			obs.C("fingerprint.identify.miss").Value(),
			obs.C("fingerprint.identify.ambiguous").Value(),
		}
	}
	dbCfg := DBConfig{Threshold: fingerprint.DefaultThreshold, Shards: 2}
	mem, err := OpenMemory(dbCfg)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := OpenTiered(Config{Dir: t.TempDir()}, dbCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	for _, b := range []Backend{mem, tiered} {
		b.Add("twinA", twin)
		b.Add("other", other)
	}
	if err := tiered.Flush(); err != nil {
		t.Fatal(err)
	}
	var deltas [][3]int64
	for _, b := range []Backend{mem, tiered} {
		b.Add("twinB", twin.Clone())
		before := counters()
		for _, q := range queries {
			b.Decide(q)
			b.DecideCtx(context.Background(), q)
			b.Identify(q)
		}
		after := counters()
		deltas = append(deltas, [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]})
	}
	// Per call: the hit and the ambiguous query count as hits, the miss as
	// a miss, the ambiguous query also as ambiguous.
	want := [3]int64{6, 3, 3}
	if deltas[0] != want || deltas[1] != want {
		t.Fatalf("(hit, miss, ambiguous) deltas: memory %v, tiered %v, want %v for both", deltas[0], deltas[1], want)
	}
}
