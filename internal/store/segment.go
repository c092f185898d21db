// segment.go: the immutable PCSEG01 segment file — columnar encoding,
// CRC-rooted load-time verification, and the view the posting kernel folds.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
	"sync/atomic"
	"unsafe"

	"probablecause/internal/bitset"
	"probablecause/internal/fingerprint"
	"probablecause/internal/samplefile"
)

// Segment file format PCSEG01, version 2 — one immutable flush of the
// memtable.
//
//	header   (44 B): magic "PCSEG01\n", version, nbits, blockEntries,
//	                 20 reserved bytes, header CRC
//	entry log       : per-entry records [u32 len | u32 crc32(payload) | payload],
//	                 payload = u64 id, u32 nPos, nPos×u32 positions,
//	                 u16 nameLen, name — the durable truth, salvageable
//	                 record by record like a WAL segment
//	columnar        : 8-aligned accelerator sections served straight from the
//	                 mmap — ids, cardinalities, name table, name-sorted
//	                 permutation, band-major sliced block words (the
//	                 source of FP)
//	postings        : the exact kernel's inverted lists — the distinct set
//	                 positions (ascending), nKeys+1 list offsets, and the
//	                 concatenated lists of entry positions (each ascending)
//	footer   (64 B): magic "PCSEGFTR", logEnd, colStart, id range, counts
//	                 (entries, keys, postings), columnar CRC, postings CRC,
//	                 footer CRC
//
// The footer is the integrity root: Load trusts the columnar sections only
// after the footer and columnar CRCs check out, and still walks the entry
// log's record CRCs so interior corruption is refused with its offset
// (CorruptError) rather than served. A postings section whose CRC or shape
// does not check out under a valid footer is refused the same way. A file
// with no valid footer is treated as torn: the longest valid prefix of log
// records is salvaged into heap-backed sections (postings included) and the
// tail is ignored — the same truncate-vs-refuse split the WAL's fuzz
// contract pins.
//
// Version 1 files (the same header and log; columnar sections whose blocks
// also carried per-block OR-unions for pruning, then sorted LSH (key,
// entry) pairs, and a 56-byte footer without postings) still open: their
// log is verified record by record and the columnar sections and postings
// are rebuilt in heap, as a salvage rebuilds them. The next compaction
// that merges one rewrites its entries as version 2.

const (
	segMagic    = "PCSEG01\n"
	segFtrMagic = "PCSEGFTR"
	segVersion  = 2
	headerSize  = 44
	footerSize  = 64
	v1FooterLen = 56
	recHdrSize  = 8 // u32 len + u32 crc
)

// CorruptError reports interior segment corruption: a record whose checksum
// fails inside the region the committed footer covers, at Offset bytes into
// the file. Torn tails (no valid footer) are salvaged, not refused; see the
// package comment in this file.
type CorruptError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: segment %s corrupt at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// colData is the in-memory form of the columnar and postings sections —
// what the writer serializes, what a torn-tail salvage (or a version 1
// load) rebuilds, and what a footer-backed Load views straight off the
// mapping.
type colData struct {
	ids      []uint64
	cards    []int
	nameOffs []uint32 // count+1 offsets into nameBlob
	nameBlob []byte
	perm     []uint32 // entry positions sorted by (name, position)
	blocks   []*bitset.SlicedBlock
	postKeys []uint32 // distinct set positions, ascending
	postOffs []uint32 // len(postKeys)+1 offsets into post
	post     []uint32 // entry positions, ascending within each key's list
}

// buildColumnar packs entries (ascending ids, one shared bit length) into
// columnar form, postings included.
func buildColumnar(entries []fingerprint.IDEntry, nbits, blockEntries int) *colData {
	n := len(entries)
	c := &colData{
		ids:      make([]uint64, n),
		cards:    make([]int, n),
		nameOffs: make([]uint32, n+1),
		perm:     make([]uint32, n),
	}
	counts := make(map[uint32]uint32) // postings per set position
	for i, e := range entries {
		c.ids[i] = uint64(e.ID)
		c.cards[i] = e.FP.Count()
		c.nameBlob = append(c.nameBlob, e.Name...)
		c.nameOffs[i+1] = uint32(len(c.nameBlob))
		c.perm[i] = uint32(i)
		if len(c.blocks) == 0 || c.blocks[len(c.blocks)-1].Len() >= blockEntries {
			c.blocks = append(c.blocks, bitset.NewSlicedBlock(nbits, blockEntries))
		}
		c.blocks[len(c.blocks)-1].Add(e.FP)
		e.FP.ForEach(func(p int) bool {
			counts[uint32(p)]++
			return true
		})
	}
	sort.Slice(c.perm, func(a, b int) bool {
		pa, pb := c.perm[a], c.perm[b]
		na, nb := c.name(int(pa)), c.name(int(pb))
		if na != nb {
			return na < nb
		}
		return pa < pb
	})
	// Postings by counting sort: size every list, then fill each from its
	// offset in entry order, so the lists are ascending and the build
	// allocates only the final arrays.
	c.postKeys = make([]uint32, 0, len(counts))
	for p := range counts {
		c.postKeys = append(c.postKeys, p)
	}
	slices.Sort(c.postKeys)
	c.postOffs = make([]uint32, len(c.postKeys)+1)
	for k, p := range c.postKeys {
		c.postOffs[k+1] = c.postOffs[k] + counts[p]
		counts[p] = c.postOffs[k] // now the list's write cursor
	}
	c.post = make([]uint32, c.postOffs[len(c.postKeys)])
	for i, e := range entries {
		e.FP.ForEach(func(p int) bool {
			c.post[counts[uint32(p)]] = uint32(i)
			counts[uint32(p)]++
			return true
		})
	}
	return c
}

func (c *colData) name(pos int) string {
	return string(c.nameBlob[c.nameOffs[pos]:c.nameOffs[pos+1]])
}

// maxPostings bounds a segment's posting entries so every list offset fits
// the u32 the format stores (16 GiB of postings — far beyond any flush).
const maxPostings int64 = 1<<32 - 1

// WriteSegment writes entries (ascending add-order ids, one shared bit
// length) as a version 2 PCSEG01 segment at path, atomically
// (temp-fsync-rename).
func WriteSegment(path string, entries []fingerprint.IDEntry, blockEntries int) error {
	if len(entries) == 0 {
		return fmt.Errorf("store: refusing to write empty segment %s", path)
	}
	if blockEntries <= 0 {
		blockEntries = bitset.DefaultSlicedEntries
	}
	nbits := entries[0].FP.Len()
	var total int64
	for _, e := range entries {
		if e.FP.Len() != nbits {
			return fmt.Errorf("store: segment needs one bit length, have %d and %d", nbits, e.FP.Len())
		}
		total += int64(e.FP.Count())
	}
	if total > maxPostings {
		return fmt.Errorf("store: segment %s would hold %d postings (limit %d); flush smaller memtables", path, total, maxPostings)
	}
	col := buildColumnar(entries, nbits, blockEntries)
	return samplefile.WriteAtomic(path, func(w io.Writer) error {
		return writeSegmentTo(w, entries, col, nbits, blockEntries)
	})
}

func writeSegmentTo(w io.Writer, entries []fingerprint.IDEntry, col *colData, nbits, blockEntries int) error {
	bw := &countWriter{w: w}
	// Header.
	hdr := make([]byte, headerSize)
	copy(hdr, segMagic)
	le := binary.LittleEndian
	le.PutUint32(hdr[8:], segVersion)
	le.PutUint32(hdr[12:], uint32(nbits))
	le.PutUint32(hdr[16:], uint32(blockEntries))
	le.PutUint32(hdr[40:], crc32.ChecksumIEEE(hdr[:40]))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	// Entry log.
	var rec []byte
	for _, e := range entries {
		pos := e.FP.Positions()
		need := 8 + 4 + 4*len(pos) + 2 + len(e.Name)
		rec = rec[:0]
		rec = le.AppendUint64(rec, uint64(e.ID))
		rec = le.AppendUint32(rec, uint32(len(pos)))
		for _, p := range pos {
			rec = le.AppendUint32(rec, p)
		}
		rec = le.AppendUint16(rec, uint16(len(e.Name)))
		rec = append(rec, e.Name...)
		if len(rec) != need {
			return fmt.Errorf("store: record size bookkeeping off: %d != %d", len(rec), need)
		}
		var rh [recHdrSize]byte
		le.PutUint32(rh[0:], uint32(len(rec)))
		le.PutUint32(rh[4:], crc32.ChecksumIEEE(rec))
		if _, err := bw.Write(rh[:]); err != nil {
			return err
		}
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	logEnd := bw.n
	if err := bw.pad8(); err != nil {
		return err
	}
	colStart := bw.n
	// Columnar sections, CRC'd as written.
	cw := &crcWriter{w: bw}
	if err := cw.u64s(col.ids); err != nil {
		return err
	}
	cards32 := make([]uint32, len(col.cards))
	for i, c := range col.cards {
		cards32[i] = uint32(c)
	}
	if err := cw.u32sPadded(cards32); err != nil {
		return err
	}
	if err := cw.u32sPadded(col.nameOffs); err != nil {
		return err
	}
	if err := cw.bytesPadded(col.nameBlob); err != nil {
		return err
	}
	if err := cw.u32sPadded(col.perm); err != nil {
		return err
	}
	for _, blk := range col.blocks {
		if err := cw.u64s(blk.Words()); err != nil {
			return err
		}
	}
	// Postings, under their own CRC.
	pw := &crcWriter{w: bw}
	for _, sec := range [][]uint32{col.postKeys, col.postOffs, col.post} {
		if err := pw.u32sPadded(sec); err != nil {
			return err
		}
	}
	// Footer.
	ftr := make([]byte, footerSize)
	copy(ftr, segFtrMagic)
	le.PutUint64(ftr[8:], uint64(logEnd))
	le.PutUint64(ftr[16:], uint64(colStart))
	le.PutUint64(ftr[24:], col.ids[0])
	le.PutUint64(ftr[32:], col.ids[len(col.ids)-1])
	le.PutUint32(ftr[40:], uint32(len(entries)))
	le.PutUint32(ftr[44:], uint32(len(col.postKeys)))
	le.PutUint32(ftr[48:], uint32(len(col.post)))
	le.PutUint32(ftr[52:], cw.crc)
	le.PutUint32(ftr[56:], pw.crc)
	le.PutUint32(ftr[60:], crc32.ChecksumIEEE(ftr[:60]))
	_, err := bw.Write(ftr)
	return err
}

// countWriter tracks the byte offset so section boundaries land 8-aligned.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

var zeros [8]byte

func (c *countWriter) pad8() error {
	if r := c.n % 8; r != 0 {
		_, err := c.Write(zeros[:8-r])
		return err
	}
	return nil
}

// crcWriter serializes columnar sections while accumulating their CRC.
type crcWriter struct {
	w   *countWriter
	crc uint32
	buf []byte
}

func (c *crcWriter) raw(b []byte) error {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, b)
	_, err := c.w.Write(b)
	return err
}

func (c *crcWriter) u64s(v []uint64) error {
	c.buf = c.buf[:0]
	for _, x := range v {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, x)
	}
	return c.raw(c.buf)
}

func (c *crcWriter) u32sPadded(v []uint32) error {
	c.buf = c.buf[:0]
	for _, x := range v {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, x)
	}
	if len(v)%2 == 1 {
		c.buf = append(c.buf, 0, 0, 0, 0)
	}
	return c.raw(c.buf)
}

func (c *crcWriter) bytesPadded(b []byte) error {
	if err := c.raw(b); err != nil {
		return err
	}
	if r := len(b) % 8; r != 0 {
		return c.raw(zeros[:8-r])
	}
	return nil
}

// Segment is one loaded PCSEG01 file: columnar views (mmap-backed on the
// fast path, heap-backed after a salvage or a version 1 rebuild) plus the
// tombstone flags its owning Tiered engine maintains under its mutex.
type Segment struct {
	path         string
	m            *mapping
	nbits        int
	blockEntries int
	count        int
	minID, maxID uint64
	salvaged     bool

	col    *colData
	cards  []int // shared backing for the per-block ViewSlicedBlock cards
	blocks []*bitset.SlicedBlock

	// dead flags entries tombstoned by Remove; guarded by the owning
	// engine's mutex (a Segment alone is immutable).
	dead      []bool
	deadCount int

	// refs keeps the mapping alive while replication snapshots stream the
	// file; compaction defers deletion until the count drops to zero.
	refs atomic.Int32
}

// LoadSegment opens a PCSEG01 file. With a committed footer the columnar and
// postings sections are mmap'd views and every entry-log record's CRC is
// verified — a failed record or postings section is refused as
// *CorruptError with its offset. Without a valid footer the file is treated
// as torn: the longest valid prefix of log records is rebuilt into
// heap-backed sections (Salvaged reports this) and the tail is dropped,
// mirroring the WAL's torn-tail rule. A committed version 1 file is rebuilt
// in heap from its verified log.
func LoadSegment(path string) (*Segment, error) {
	m, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	seg, err := parseSegment(path, m)
	if err != nil {
		m.Close()
		return nil, err
	}
	return seg, nil
}

func parseSegment(path string, m *mapping) (*Segment, error) {
	data := m.data
	le := binary.LittleEndian
	if len(data) < headerSize {
		return nil, &CorruptError{Path: path, Offset: 0, Reason: fmt.Sprintf("file of %d bytes is shorter than the %d-byte header", len(data), headerSize)}
	}
	if string(data[:8]) != segMagic {
		return nil, &CorruptError{Path: path, Offset: 0, Reason: "bad magic"}
	}
	if got, want := le.Uint32(data[40:]), crc32.ChecksumIEEE(data[:40]); got != want {
		return nil, &CorruptError{Path: path, Offset: 40, Reason: "header checksum mismatch"}
	}
	version := le.Uint32(data[8:])
	if version != 1 && version != segVersion {
		return nil, fmt.Errorf("store: segment %s has unsupported version %d", path, version)
	}
	seg := &Segment{
		path:         path,
		m:            m,
		nbits:        int(le.Uint32(data[12:])),
		blockEntries: int(le.Uint32(data[16:])),
	}
	if seg.blockEntries <= 0 {
		return nil, &CorruptError{Path: path, Offset: 16, Reason: "zero block width"}
	}
	ftr, ok := validFooter(data, version)
	switch {
	case !ok:
		seg.salvage(data)
	case version == 1:
		entries, err := seg.readCommittedLog(data, ftr)
		if err != nil {
			return nil, err
		}
		seg.rebuild(entries)
	default:
		if err := seg.loadCommitted(data, ftr); err != nil {
			return nil, err
		}
	}
	return seg, nil
}

type footer struct {
	logEnd, colStart, postStart int64
	minID, maxID                uint64
	count, nKeys, nPost         int
	colCRC, postCRC             uint32
}

// postingsSize is the byte length of a postings section with nKeys keys and
// nPost entries: three u32 arrays, each padded to 8 bytes.
func postingsSize(nKeys, nPost int) int64 {
	pad8 := func(n int64) int64 { return (n + 7) &^ 7 }
	return pad8(int64(nKeys)*4) + pad8(int64(nKeys+1)*4) + pad8(int64(nPost)*4)
}

// validFooter decodes and checks the footer of a version 1 or 2 file and
// the columnar CRC; ok=false means torn (salvage), never corruption — a file
// that lost its footer is by definition missing its commit point. Version 1
// footers are 56 bytes, with the columnar CRC at 48 covering everything
// after the log. The postings CRC of version 2 is checked by
// loadCommitted, which refuses a mismatch: the footer vouches for the
// section, so a bad one is damage, not a torn write.
func validFooter(data []byte, version uint32) (footer, bool) {
	le := binary.LittleEndian
	size := footerSize
	if version == 1 {
		size = v1FooterLen
	}
	if len(data) < headerSize+size {
		return footer{}, false
	}
	end := int64(len(data) - size)
	f := data[end:]
	if string(f[:8]) != segFtrMagic || le.Uint32(f[size-4:]) != crc32.ChecksumIEEE(f[:size-4]) {
		return footer{}, false
	}
	ftr := footer{
		logEnd:    int64(le.Uint64(f[8:])),
		colStart:  int64(le.Uint64(f[16:])),
		minID:     le.Uint64(f[24:]),
		maxID:     le.Uint64(f[32:]),
		count:     int(le.Uint32(f[40:])),
		postStart: end,
	}
	colCRC := le.Uint32(f[48:])
	if version != 1 {
		ftr.nKeys, ftr.nPost = int(le.Uint32(f[44:])), int(le.Uint32(f[48:]))
		colCRC, ftr.postCRC = le.Uint32(f[52:]), le.Uint32(f[56:])
		ftr.postStart -= postingsSize(ftr.nKeys, ftr.nPost)
	}
	if ftr.logEnd < headerSize || ftr.colStart < ftr.logEnd || ftr.colStart%8 != 0 ||
		ftr.postStart < ftr.colStart || ftr.count <= 0 {
		return footer{}, false
	}
	if crc32.ChecksumIEEE(data[ftr.colStart:ftr.postStart]) != colCRC {
		return footer{}, false
	}
	return ftr, true
}

// walkLog verifies the record CRCs of a committed entry log (counts and
// checksums only, no materialization); interior corruption is refused here.
func (seg *Segment) walkLog(data []byte, ftr footer) error {
	off := int64(headerSize)
	le := binary.LittleEndian
	for i := 0; i < ftr.count; i++ {
		if off+recHdrSize > ftr.logEnd {
			return &CorruptError{Path: seg.path, Offset: off, Reason: fmt.Sprintf("log ends after %d of %d records", i, ftr.count)}
		}
		n := int64(le.Uint32(data[off:]))
		want := le.Uint32(data[off+4:])
		if off+recHdrSize+n > ftr.logEnd {
			return &CorruptError{Path: seg.path, Offset: off, Reason: "record overruns the committed log"}
		}
		if crc32.ChecksumIEEE(data[off+recHdrSize:off+recHdrSize+n]) != want {
			return &CorruptError{Path: seg.path, Offset: off, Reason: fmt.Sprintf("record %d checksum mismatch", i)}
		}
		off += recHdrSize + n
	}
	if off != ftr.logEnd {
		return &CorruptError{Path: seg.path, Offset: off, Reason: "trailing bytes inside the committed log"}
	}
	return nil
}

// readCommittedLog verifies a committed log and decodes every record — the
// version 1 load, which rebuilds everything else from the log.
func (seg *Segment) readCommittedLog(data []byte, ftr footer) ([]fingerprint.IDEntry, error) {
	if err := seg.walkLog(data, ftr); err != nil {
		return nil, err
	}
	entries, off := readLog(data[:ftr.logEnd], seg.nbits)
	if len(entries) != ftr.count {
		return nil, &CorruptError{Path: seg.path, Offset: off, Reason: fmt.Sprintf("record %d does not decode", len(entries))}
	}
	return entries, nil
}

// loadCommitted wires the columnar and postings views off the mapping after
// walking the entry log's record CRCs.
func (seg *Segment) loadCommitted(data []byte, ftr footer) error {
	if err := seg.walkLog(data, ftr); err != nil {
		return err
	}
	seg.count, seg.minID, seg.maxID = ftr.count, ftr.minID, ftr.maxID
	n := ftr.count
	wpw := (seg.nbits + 63) / 64
	b := seg.blockEntries
	nBlocks := (n + b - 1) / b
	// Section walk; every offset is 8-aligned by construction.
	o := ftr.colStart
	limit := ftr.postStart
	next := func(size int64) ([]byte, error) {
		if o+size > limit {
			return nil, &CorruptError{Path: seg.path, Offset: o, Reason: "columnar section overruns the file"}
		}
		s := data[o : o+size]
		o += size
		return s, nil
	}
	pad8 := func(n int64) int64 { return (n + 7) &^ 7 }
	idsB, err := next(int64(n) * 8)
	if err != nil {
		return err
	}
	cardsB, err := next(pad8(int64(n) * 4))
	if err != nil {
		return err
	}
	offsB, err := next(pad8(int64(n+1) * 4))
	if err != nil {
		return err
	}
	offs := u32view(offsB)[:n+1]
	blobB, err := next(pad8(int64(offs[n])))
	if err != nil {
		return err
	}
	permB, err := next(pad8(int64(n) * 4))
	if err != nil {
		return err
	}
	blocksB, err := next(int64(nBlocks) * int64(wpw*b) * 8)
	if err != nil {
		return err
	}
	if o != limit {
		return &CorruptError{Path: seg.path, Offset: o, Reason: "columnar sections do not fill the file"}
	}
	limit = int64(len(data)) - footerSize
	postB := data[ftr.postStart:limit]
	if crc32.ChecksumIEEE(postB) != ftr.postCRC {
		return &CorruptError{Path: seg.path, Offset: ftr.postStart, Reason: "postings checksum mismatch"}
	}
	keysB, _ := next(pad8(int64(ftr.nKeys) * 4))
	postOffsB, _ := next(pad8(int64(ftr.nKeys+1) * 4))
	postEntB, _ := next(pad8(int64(ftr.nPost) * 4))
	cards32 := u32view(cardsB)[:n]
	seg.cards = make([]int, n)
	for i, c := range cards32 {
		seg.cards[i] = int(c)
	}
	seg.col = &colData{
		ids:      u64view(idsB),
		cards:    seg.cards,
		nameOffs: offs,
		nameBlob: blobB[:offs[n]],
		perm:     u32view(permB)[:n],
		postKeys: u32view(keysB)[:ftr.nKeys],
		postOffs: u32view(postOffsB)[:ftr.nKeys+1],
		post:     u32view(postEntB)[:ftr.nPost],
	}
	if reason := seg.col.checkPostings(n, seg.nbits); reason != "" {
		return &CorruptError{Path: seg.path, Offset: ftr.postStart, Reason: reason}
	}
	blockWords := u64view(blocksB)
	seg.blocks = make([]*bitset.SlicedBlock, nBlocks)
	for bi := 0; bi < nBlocks; bi++ {
		words := blockWords[bi*wpw*b : (bi+1)*wpw*b]
		cnt := b
		if bi == nBlocks-1 {
			cnt = n - bi*b
		}
		seg.blocks[bi] = bitset.ViewSlicedBlock(seg.nbits, b, cnt, words, seg.cards[bi*b:bi*b+cnt])
	}
	seg.dead = make([]bool, n)
	return nil
}

// checkPostings validates the postings' shape against count entries of
// nbits bits: keys strictly ascending and in range, offsets non-decreasing
// from 0 to len(post), each list strictly ascending with in-range entries.
// The kernel indexes by these values, so a shape the CRC vouches for is
// still checked before anything is served from it. Returns "" when sound.
func (c *colData) checkPostings(count, nbits int) string {
	if c.postOffs[0] != 0 || int(c.postOffs[len(c.postKeys)]) != len(c.post) {
		return "postings offsets do not span the entries"
	}
	for k, p := range c.postKeys {
		if int(p) >= nbits || (k > 0 && p <= c.postKeys[k-1]) {
			return fmt.Sprintf("postings key %d out of order or range", k)
		}
		lo, hi := c.postOffs[k], c.postOffs[k+1]
		if lo > hi || int(hi) > len(c.post) {
			return fmt.Sprintf("postings list %d has bad bounds", k)
		}
		for j := lo; j < hi; j++ {
			if int(c.post[j]) >= count || (j > lo && c.post[j] <= c.post[j-1]) {
				return fmt.Sprintf("postings list %d out of order or range", k)
			}
		}
	}
	return ""
}

// readLog decodes the longest valid prefix of log records in data,
// returning the entries and the offset where decoding stopped.
func readLog(data []byte, nbits int) ([]fingerprint.IDEntry, int64) {
	le := binary.LittleEndian
	var entries []fingerprint.IDEntry
	off := int64(headerSize)
	for off+recHdrSize <= int64(len(data)) {
		n := int64(le.Uint32(data[off:]))
		want := le.Uint32(data[off+4:])
		if off+recHdrSize+n > int64(len(data)) {
			break
		}
		payload := data[off+recHdrSize : off+recHdrSize+n]
		if crc32.ChecksumIEEE(payload) != want {
			break
		}
		e, err := decodeRecord(payload, nbits)
		if err != nil {
			break
		}
		entries = append(entries, e)
		off += recHdrSize + n
	}
	return entries, off
}

// salvage parses the longest valid prefix of the entry log and rebuilds the
// columnar sections in heap.
func (seg *Segment) salvage(data []byte) {
	entries, _ := readLog(data, seg.nbits)
	seg.salvaged = true
	seg.rebuild(entries)
}

// rebuild builds the columnar and postings sections in heap from decoded
// entries — the torn-tail salvage and the version 1 load.
func (seg *Segment) rebuild(entries []fingerprint.IDEntry) {
	seg.count = len(entries)
	seg.dead = make([]bool, seg.count)
	if len(entries) == 0 {
		seg.col = &colData{nameOffs: []uint32{0}, postOffs: []uint32{0}}
		return
	}
	seg.col = buildColumnar(entries, seg.nbits, seg.blockEntries)
	seg.cards = seg.col.cards
	seg.blocks = seg.col.blocks
	seg.minID = seg.col.ids[0]
	seg.maxID = seg.col.ids[len(seg.col.ids)-1]
}

func decodeRecord(p []byte, nbits int) (fingerprint.IDEntry, error) {
	le := binary.LittleEndian
	if len(p) < 12 {
		return fingerprint.IDEntry{}, fmt.Errorf("short record")
	}
	id := le.Uint64(p)
	nPos := int(le.Uint32(p[8:]))
	if len(p) < 12+4*nPos+2 {
		return fingerprint.IDEntry{}, fmt.Errorf("truncated positions")
	}
	pos := make([]uint32, nPos)
	for i := range pos {
		pos[i] = le.Uint32(p[12+4*i:])
		if int(pos[i]) >= nbits {
			return fingerprint.IDEntry{}, fmt.Errorf("position %d out of %d bits", pos[i], nbits)
		}
	}
	o := 12 + 4*nPos
	nameLen := int(le.Uint16(p[o:]))
	if len(p) != o+2+nameLen {
		return fingerprint.IDEntry{}, fmt.Errorf("record length mismatch")
	}
	name := string(p[o+2 : o+2+nameLen])
	return fingerprint.IDEntry{ID: int(id), Name: name, FP: bitset.FromPositions(nbits, pos)}, nil
}

// Salvaged reports whether the segment was recovered from a torn file
// (heap-backed, possibly missing a tail of entries).
func (seg *Segment) Salvaged() bool { return seg.salvaged }

// Len counts entries including tombstoned ones; Live subtracts them.
func (seg *Segment) Len() int  { return seg.count }
func (seg *Segment) Live() int { return seg.count - seg.deadCount }

// Bits reports the fingerprint length every entry in this segment shares.
func (seg *Segment) Bits() int { return seg.nbits }

// Name returns entry pos's name (allocates the string on demand — verdicts
// materialize one name, not the table).
func (seg *Segment) Name(pos int) string { return seg.col.name(pos) }

// ID returns entry pos's add-order id.
func (seg *Segment) ID(pos int) int { return int(seg.col.ids[pos]) }

// FP materializes entry pos's fingerprint as a dense heap Set (exports and
// snapshots only — the query path never calls it).
func (seg *Segment) FP(pos int) *bitset.Set {
	blk := seg.blocks[pos/seg.blockEntries]
	j := pos % seg.blockEntries
	words := make([]uint64, (seg.nbits+63)/64)
	bw := blk.Words()
	for w := range words {
		words[w] = bw[w*blk.Cap()+j]
	}
	return bitset.FromWords(seg.nbits, words)
}

// Retain pins the segment (and its mapping) for a streaming reader;
// Release undoes it. The owning engine deletes a compacted-away segment's
// file only when the count returns to zero.
func (seg *Segment) Retain()  { seg.refs.Add(1) }
func (seg *Segment) Release() { seg.refs.Add(-1) }

func (seg *Segment) retained() bool { return seg.refs.Load() > 0 }

// Close releases the mapping.
func (seg *Segment) Close() error {
	if seg.m != nil {
		return seg.m.Close()
	}
	return nil
}

// kill tombstones entry pos (engine mutex held).
func (seg *Segment) kill(pos int) {
	if !seg.dead[pos] {
		seg.dead[pos] = true
		seg.deadCount++
	}
}

// findName returns the position of the earliest-added live entry under name,
// by binary search over the name-sorted permutation (equal names tie-break
// by position, i.e. by id).
func (seg *Segment) findName(name string) (int, bool) {
	perm := seg.col.perm
	lo := sort.Search(len(perm), func(i int) bool { return seg.col.name(int(perm[i])) >= name })
	for ; lo < len(perm); lo++ {
		pos := int(perm[lo])
		if seg.col.name(pos) != name {
			break
		}
		if !seg.dead[pos] {
			return pos, true
		}
	}
	return 0, false
}

// view exposes the segment to the posting kernel. List finds a position's
// key by binary search over the keys not yet passed: the kernel asks for
// the query's positions in ascending order, so each search starts where the
// previous one ended.
func (seg *Segment) view() fingerprint.PostingView {
	c := seg.col
	lo := 0
	v := fingerprint.PostingView{
		Cards: seg.cards,
		List: func(p uint32) []uint32 {
			keys := c.postKeys[lo:]
			k := sort.Search(len(keys), func(i int) bool { return keys[i] >= p })
			lo += k
			if k == len(keys) || keys[k] != p {
				return nil
			}
			return c.post[c.postOffs[lo]:c.postOffs[lo+1]]
		},
		ID: seg.ID,
	}
	if seg.deadCount > 0 {
		v.Dead = seg.dead
	}
	return v
}

// exportLive appends the live entries (materialized) in id order.
func (seg *Segment) exportLive(dst []fingerprint.IDEntry) []fingerprint.IDEntry {
	for pos := 0; pos < seg.count; pos++ {
		if seg.dead[pos] {
			continue
		}
		dst = append(dst, fingerprint.IDEntry{ID: seg.ID(pos), Name: seg.col.name(pos), FP: seg.FP(pos)})
	}
	return dst
}

// VerifySegment deep-checks a segment file: Load's structural and checksum
// validation plus a log-vs-columnar cross-check (every record's id, name,
// cardinality, and bits must match the columnar sections the queries serve
// from, and the postings must equal the ones the log's entries imply). A
// salvaged (torn) file fails verification — triage should see it.
func VerifySegment(path string) error {
	seg, err := LoadSegment(path)
	if err != nil {
		return err
	}
	defer seg.Close()
	if seg.Salvaged() {
		return fmt.Errorf("store: segment %s has no committed footer (torn tail, %d salvageable entries)", path, seg.count)
	}
	m, err := mapFile(path)
	if err != nil {
		return err
	}
	defer m.Close()
	le := binary.LittleEndian
	off := int64(headerSize)
	entries := make([]fingerprint.IDEntry, seg.count)
	for pos := 0; pos < seg.count; pos++ {
		n := int64(le.Uint32(m.data[off:]))
		e, err := decodeRecord(m.data[off+recHdrSize:off+recHdrSize+n], seg.nbits)
		if err != nil {
			return &CorruptError{Path: path, Offset: off, Reason: err.Error()}
		}
		if e.ID != seg.ID(pos) || e.Name != seg.Name(pos) || e.FP.Count() != seg.cards[pos] || !e.FP.Equal(seg.FP(pos)) {
			return &CorruptError{Path: path, Offset: off, Reason: fmt.Sprintf("entry %d diverges between log and columnar sections", pos)}
		}
		entries[pos] = e
		off += recHdrSize + n
	}
	want := buildColumnar(entries, seg.nbits, seg.blockEntries)
	if !slices.Equal(want.postKeys, seg.col.postKeys) || !slices.Equal(want.postOffs, seg.col.postOffs) || !slices.Equal(want.post, seg.col.post) {
		return &CorruptError{Path: path, Offset: 0, Reason: "postings diverge from the entry log"}
	}
	// The columnar kernel must agree with the scalar one on a live entry.
	for pos := 0; pos < seg.count; pos += 1 + seg.count/64 {
		fp := seg.FP(pos)
		r := seg.blocks[pos/seg.blockEntries].MinCardAndNotCountOne(fp, pos%seg.blockEntries)
		if r.Diff != 0 || r.MinCard != fp.Count() {
			return &CorruptError{Path: path, Offset: 0, Reason: fmt.Sprintf("self-distance of entry %d is not zero", pos)}
		}
	}
	return nil
}

// u64view reinterprets an 8-aligned little-endian byte section as []uint64
// without copying; on a big-endian or misaligned platform it decodes into a
// fresh slice instead.
func u64view(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

func u32view(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()
