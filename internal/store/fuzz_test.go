package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
)

// FuzzSegmentLoad mirrors the WAL's fuzz contract on PCSEG01 files: for a
// valid segment arbitrarily truncated and byte-flipped, LoadSegment must
// never panic, never serve wrong entries, and must classify damage exactly:
//
//   - pure truncation (footer lost) salvages a strict prefix of the entry
//     log — every recovered entry byte-identical to the original;
//   - interior corruption under an intact footer is refused with a
//     CorruptError carrying an in-range offset;
//   - a pristine file loads all entries with no salvage flag;
//   - whatever loads answers through the posting kernel exactly as through
//     the dense block sweep, so damaged postings are never served.
func FuzzSegmentLoad(f *testing.F) {
	const n, nbits = 12, 512
	entries := testEntries(n, nbits)
	dir := f.TempDir()
	clean := filepath.Join(dir, "seg-000000.pcseg")
	if err := WriteSegment(clean, entries, 4); err != nil {
		f.Fatal(err)
	}
	blob, err := os.ReadFile(clean)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(len(blob), -1, byte(0))                       // pristine
	f.Add(len(blob)/2, -1, byte(0))                     // torn mid-log
	f.Add(headerSize+3, -1, byte(0))                    // torn inside first record
	f.Add(len(blob), headerSize+9, byte(1))             // interior log flip
	f.Add(len(blob), 5, byte(0x80))                     // header flip
	f.Add(len(blob), len(blob)-10, byte(4))             // footer flip
	f.Add(len(blob), postingsStart(f, blob)+4, byte(2)) // postings key flip
	f.Add(len(blob), len(blob)-footerSize-4, byte(1))   // postings entry flip
	f.Add(len(blob), len(blob)-8, byte(0x10))           // postings CRC flip
	f.Add(len(blob)-footerSize/2, -1, byte(0))          // torn inside the footer
	f.Add(postingsStart(f, blob)+8, -1, byte(0))        // torn inside postings

	f.Fuzz(func(t *testing.T, cut int, flip int, xor byte) {
		if cut < 0 {
			cut = 0
		}
		if cut > len(blob) {
			cut = len(blob)
		}
		mut := append([]byte(nil), blob[:cut]...)
		flipped := false
		if flip >= 0 && flip < len(mut) && xor != 0 {
			mut[flip] ^= xor
			flipped = true
		}
		path := filepath.Join(t.TempDir(), "seg-000001.pcseg")
		if err := os.WriteFile(path, mut, 0o666); err != nil {
			t.Fatal(err)
		}
		seg, err := LoadSegment(path)
		if err != nil {
			// Refusals must be classified, and interior refusals must carry
			// an offset inside the file.
			if ce, ok := err.(*CorruptError); ok {
				if ce.Offset < 0 || ce.Offset > int64(len(mut)) {
					t.Fatalf("corruption offset %d outside [0,%d]", ce.Offset, len(mut))
				}
			}
			return
		}
		defer seg.Close()
		checkKernelMatchesScan(t, seg, nil, fingerprint.DefaultThreshold)
		// Whatever loaded must be internally consistent and, where it maps
		// onto the original, identical to it. A salvage yields a prefix; a
		// committed load yields everything (unless a flip landed in a
		// columnar byte that was reconstructed — only possible via salvage).
		if !flipped {
			if cut == len(blob) {
				if seg.Salvaged() || seg.Len() != n {
					t.Fatalf("pristine file: salvaged=%v len=%d", seg.Salvaged(), seg.Len())
				}
			} else if !seg.Salvaged() {
				t.Fatalf("truncated to %d bytes but not salvaged", cut)
			}
			if seg.Len() > n {
				t.Fatalf("recovered %d entries from a %d-entry file", seg.Len(), n)
			}
			for i := 0; i < seg.Len(); i++ {
				if seg.ID(i) != entries[i].ID || seg.Name(i) != entries[i].Name || !seg.FP(i).Equal(entries[i].FP) {
					t.Fatalf("recovered entry %d diverges from original", i)
				}
			}
			return
		}
		// Byte-flipped and still loaded: the load path that accepted it must
		// have verified checksums over what it serves, so any served entry
		// whose record survives in the original must match it. CRC32 can in
		// principle collide, but not from a single-byte flip.
		for i := 0; i < seg.Len() && i < n; i++ {
			if seg.ID(i) == entries[i].ID && seg.Name(i) == entries[i].Name {
				continue
			}
			// The flip may legitimately have landed in this record only if
			// the file was then refused — it wasn't — or salvage cut before
			// it. A diverging served entry is a contract violation.
			t.Fatalf("served entry %d diverges after byte flip at %d", i, flip)
		}
	})
}

// postingsStart returns the offset of a pristine version 2 file's postings
// section, decoded from its footer.
func postingsStart(tb testing.TB, blob []byte) int {
	ftr, ok := validFooter(blob, segVersion)
	if !ok {
		tb.Fatal("pristine segment has no valid footer")
	}
	return int(ftr.postStart)
}

// checkKernelMatchesScan holds a loaded, untombstoned segment's posting
// kernel to DB.Decide and DB.Identify over a DB built from seg.FP, which
// decodes the block section: the two read paths share nothing but the
// columnar ids and names. Beside the given queries it asks the empty query
// and every entry's own fingerprint.
func checkKernelMatchesScan(t *testing.T, seg *Segment, queries []*bitset.Set, thr float64) {
	t.Helper()
	if seg.Len() == 0 {
		return
	}
	db := fingerprint.NewDB(thr)
	qs := append([]*bitset.Set{bitset.New(seg.Bits())}, queries...)
	for i := 0; i < seg.Len(); i++ {
		db.Add(seg.Name(i), seg.FP(i))
		qs = append(qs, seg.FP(i))
	}
	for qi, q := range qs {
		a := segAnswer(seg, q, thr)
		want := db.Decide(q)
		if want.Index >= 0 {
			want.Index = seg.ID(want.Index)
		}
		if a.Verdict != want {
			t.Fatalf("query %d: kernel %+v, scan %+v", qi, a.Verdict, want)
		}
		wn, wi, ok := db.Identify(q)
		if ok {
			wi = seg.ID(wi)
		}
		if a.FirstName != wn || a.FirstID != wi {
			t.Fatalf("query %d: kernel first (%s,%d), scan (%s,%d)", qi, a.FirstName, a.FirstID, wn, wi)
		}
	}
}

// TestFuzzSegmentLoadSmoke replays the seed corpus without the fuzzing
// engine — the CI storage job's cheap standing guard.
func TestFuzzSegmentLoadSmoke(t *testing.T) {
	const n, nbits = 12, 512
	entries := testEntries(n, nbits)
	dir := t.TempDir()
	clean := filepath.Join(dir, "seg-000000.pcseg")
	if err := WriteSegment(clean, entries, 4); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation point: salvage must always yield an exact prefix.
	for cut := 0; cut <= len(blob); cut += 13 {
		path := filepath.Join(dir, "seg-000001.pcseg")
		if err := os.WriteFile(path, blob[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		seg, err := LoadSegment(path)
		if err != nil {
			continue // refused (e.g. inside the header) — acceptable
		}
		for i := 0; i < seg.Len(); i++ {
			if seg.ID(i) != entries[i].ID || !seg.FP(i).Equal(entries[i].FP) {
				t.Fatalf("cut %d: salvaged entry %d diverges", cut, i)
			}
		}
		checkKernelMatchesScan(t, seg, nil, fingerprint.DefaultThreshold)
		seg.Close()
	}
	// Every postings byte flipped under an intact footer: refused as
	// corruption with an offset inside the file.
	for off := postingsStart(t, blob); off < len(blob)-footerSize; off += 5 {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x08
		path := filepath.Join(dir, "seg-000003.pcseg")
		if err := os.WriteFile(path, mut, 0o666); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSegment(path)
		ce, ok := err.(*CorruptError)
		if !ok {
			t.Fatalf("postings flip at %d: got %v, want CorruptError", off, err)
		}
		if ce.Offset < 0 || ce.Offset > int64(len(mut)) {
			t.Fatalf("postings flip at %d: offset %d outside the file", off, ce.Offset)
		}
	}
	// Every entry-log byte flipped (stride 7): must refuse (intact footer) —
	// never serve the damaged record. The log ends where the footer says;
	// the postings sections after it are covered below.
	ftr, _ := validFooter(blob, segVersion)
	for off := headerSize; off < int(ftr.logEnd); off += 7 {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		path := filepath.Join(dir, "seg-000002.pcseg")
		if err := os.WriteFile(path, mut, 0o666); err != nil {
			t.Fatal(err)
		}
		seg, err := LoadSegment(path)
		if err == nil {
			// Loads are only acceptable if the flip changed nothing served.
			same := seg.Len() == n
			for i := 0; same && i < n; i++ {
				same = seg.ID(i) == entries[i].ID && seg.FP(i).Equal(entries[i].FP)
			}
			seg.Close()
			if !same {
				t.Fatalf("flip at %d served diverging data", off)
			}
			if !bytes.Equal(mut, blob) {
				t.Fatalf("flip at %d accepted without refusal", off)
			}
		}
	}
}
