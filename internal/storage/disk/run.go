// Run files: the disk engine's unit of storage. A run is an immutable,
// insertion-ordered sequence of tuples written out in CRC-framed blocks of
// a fixed row count, so a slot number maps to its block arithmetically.
// Blocks are stored raw or packed (see compress.go); what stays in memory
// per run after open is only the small stuff — block offsets and a bloom
// filter over the rows' whole-tuple hashes. The chain index (one cached
// hash per row plus the same intrusive bucket layout the main-memory
// engine uses) is loaded lazily from the run's hash section the first time
// a bloom filter lets a probe through.
//
// The current format (RUN2) is footer-indexed: block metadata, the row
// hashes, and the bloom filter are persisted at the tail and sealed by a
// fixed trailer, so reopening a store reads a few KB per run instead of
// decoding every block. RUN1 files (no footer) are still readable — they
// open the old way, by scanning — so a store written before the format
// change upgrades in place at its next checkpoint.
//
// Runs are ordered by flush sequence, not by value: global enumeration
// order (runs in flush order, then the memtable) reproduces the main-memory
// engine's insertion order exactly, which is what keeps results
// byte-identical across engines and worker counts. See DESIGN.md for the
// runs-vs-B-tree decision.
package disk

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"gluenail/internal/storage"
	"gluenail/internal/storage/fsio"
	"gluenail/internal/term"
)

const (
	runMagic1 = "GLUENAIL-RUN1\n"
	runMagic2 = "GLUENAIL-RUN2\n"
	// runTrailerMagic seals a RUN2 footer; the fixed-size trailer is what
	// openRun finds by seeking to the end.
	runTrailerMagic = "GNRUN2F\n"
	runTrailerLen   = 8 + 4 + 4 + len(runTrailerMagic)
	// rowsPerBlock is fixed so slot -> block is a shift, not a search.
	rowsPerBlock = 256
)

// runName returns the file name of run seq.
func runName(seq uint64) string { return fmt.Sprintf("run-%08d.grn", seq) }

type blockMeta struct {
	off   int64 // frame start (length prefix) within the file
	size  int32 // frame size in bytes including the 8-byte header
	nrows int32
}

// run is one immutable on-disk segment plus its resident metadata. All
// fields except the lazy index, tombs, and refs are frozen after
// construction; tombs is a copy-on-write map (slot -> deleting CSN)
// swapped atomically by the single writer and read lock-free by concurrent
// snapshot sessions and the compactor; refs counts the owners (store,
// snapshots) holding the file open.
type run struct {
	seq    uint64
	path   string
	f      fsio.File
	arity  int
	nrows  int32
	blocks []blockMeta
	v2     bool      // footer-indexed format; false = legacy RUN1
	dict   *atomDict // owning store's intern dictionary (packed blocks)
	// bloom screens membership probes; built at create, persisted in the
	// footer, reloaded with it.
	bloom *bloomFilter
	// Chain index: hashes caches each row's whole-tuple hash; heads/next
	// chain rows by hash in the main-memory Relation's head-table layout
	// (slot+1 links, ascending slot order), with one head per two rows so
	// the index costs at most 8 bytes a row beyond hashes. RUN2 runs, new
	// or reopened, load it on demand from hashOff — a run only ever read
	// by partial-key lookups never holds it; idxReady gates access, its
	// Store/Load ordering publishes the slices.
	hashOff  int64
	idxMu    sync.Mutex
	idxReady atomic.Bool
	hashes   []uint64
	heads    []int32
	shift    uint
	next     []int32
	// colIxs holds the run's column indexes (colindex.go), one per column
	// mask snapshot reads have looked up; the list is copy-on-write under
	// colMu and loaded lock-free.
	colMu  sync.Mutex
	colIxs atomic.Pointer[[]*colIndex]
	// synced records that the file's contents are durable (fsynced);
	// FlushBase syncs any stragglers before the manifest names them.
	synced atomic.Bool
	tombs  atomic.Pointer[map[int32]uint64]
	refs   atomic.Int32
}

func (r *run) retain() { r.refs.Add(1) }

// release drops one reference; the file handle closes with the last one.
// The file itself may already be unlinked (POSIX keeps the data readable
// through the open handle), so close order and unlink order are
// independent.
func (r *run) release() {
	if r.refs.Add(-1) == 0 {
		// Read-only handle over durable (or already-retired) bytes: a
		// close failure can lose nothing, so it is deliberately dropped.
		_ = r.f.Close()
		r.colIxs.Store(nil)
	}
}

// tombAt returns the CSN slot was deleted at (0 = live), safe to call
// concurrently with the writer.
func (r *run) tombAt(slot int32) uint64 {
	m := r.tombs.Load()
	if m == nil {
		return 0
	}
	return (*m)[slot]
}

// setTomb stamps slot deleted at csn. Writer-only; readers follow the old
// or new map, both consistent.
func (r *run) setTomb(slot int32, csn uint64) {
	old := r.tombs.Load()
	var nm map[int32]uint64
	if old == nil {
		nm = map[int32]uint64{slot: csn}
	} else {
		nm = make(map[int32]uint64, len(*old)+1)
		for k, v := range *old {
			nm[k] = v
		}
		nm[slot] = csn
	}
	r.tombs.Store(&nm)
}

// ntombs returns the current tombstone count.
func (r *run) ntombs() int {
	m := r.tombs.Load()
	if m == nil {
		return 0
	}
	return len(*m)
}

// liveNow returns the rows not hidden by any tombstone.
func (r *run) liveNow() int { return int(r.nrows) - r.ntombs() }

// liveAt counts rows visible at snapshot CSN csn (tomb 0 or > csn).
func (r *run) liveAt(csn uint64) int {
	n := int(r.nrows)
	m := r.tombs.Load()
	if m == nil {
		return n
	}
	for _, d := range *m {
		if d != 0 && d <= csn {
			n--
		}
	}
	return n
}

// mayContain consults the run's bloom filter, accounting the check. A
// false return is definitive: the run holds no row with this hash, so the
// probe can skip the chain walk (and any index load) entirely.
func (r *run) mayContain(st *storage.Stats, h uint64) bool {
	atomic.AddInt64(&st.BloomChecks, 1)
	if r.bloom != nil && !r.bloom.mayContain(h) {
		atomic.AddInt64(&st.BloomSkips, 1)
		return false
	}
	return true
}

// ensureIndex makes the chain index resident: RUN2 runs load the hash
// section and build the chains here, on the first probe a bloom filter
// lets through (RUN1 runs build theirs at open).
func (r *run) ensureIndex(st *storage.Stats) error {
	if r.idxReady.Load() {
		return nil
	}
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if r.idxReady.Load() {
		return nil
	}
	buf := make([]byte, int(r.nrows)*8+4)
	if _, err := r.f.ReadAt(buf, r.hashOff); err != nil {
		return storage.IOFault("run-read", r.path, err)
	}
	if crc32.ChecksumIEEE(buf[:len(buf)-4]) != binary.LittleEndian.Uint32(buf[len(buf)-4:]) {
		return &storage.CorruptError{Artifact: "run-hash-section", Path: r.path, Run: r.seq,
			Offset: r.hashOff, Detail: "hash section checksum mismatch"}
	}
	hashes := make([]uint64, r.nrows)
	for i := range hashes {
		hashes[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	r.hashes = hashes
	r.buildIndex()
	atomic.AddInt64(&st.RunIndexLoads, 1)
	r.idxReady.Store(true)
	return nil
}

// encodeRun renders the full RUN2 file image for rows: magic, arity,
// CRC-framed blocks (raw or packed), the hash section, and the sealed
// footer. Returns the image plus the block metadata and hash-section
// offset that mirror it.
func encodeRun(d *atomDict, arity int, rows []term.Tuple, hashes []uint64, compress bool) ([]byte, []blockMeta, int64) {
	var buf bytes.Buffer
	buf.WriteString(runMagic2)
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(arity))])
	var blocks []blockMeta
	for start := 0; start < len(rows); start += rowsPerBlock {
		end := start + rowsPerBlock
		if end > len(rows) {
			end = len(rows)
		}
		payload := encodeBlockPayload(d, rows[start:end], compress)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		blocks = append(blocks, blockMeta{off: int64(buf.Len()), size: int32(len(payload)) + 8, nrows: int32(end - start)})
		buf.Write(hdr[:])
		buf.Write(payload)
	}
	hashOff := int64(buf.Len())
	var hsec []byte
	for _, h := range hashes {
		hsec = binary.LittleEndian.AppendUint64(hsec, h)
	}
	hsec = binary.LittleEndian.AppendUint32(hsec, crc32.ChecksumIEEE(hsec))
	buf.Write(hsec)

	footOff := int64(buf.Len())
	var foot []byte
	foot = binary.AppendUvarint(foot, uint64(len(blocks)))
	for _, bm := range blocks {
		foot = binary.AppendUvarint(foot, uint64(bm.size-8))
		foot = binary.AppendUvarint(foot, uint64(bm.nrows))
	}
	foot = binary.AppendUvarint(foot, uint64(len(rows)))
	foot = binary.AppendUvarint(foot, uint64(hashOff))
	foot = appendBloom(foot, bloomFrom(hashes))
	buf.Write(foot)

	var trailer [runTrailerLen]byte
	binary.LittleEndian.PutUint64(trailer[0:8], uint64(footOff))
	binary.LittleEndian.PutUint32(trailer[8:12], uint32(len(foot)))
	binary.LittleEndian.PutUint32(trailer[12:16], crc32.ChecksumIEEE(foot))
	copy(trailer[16:], runTrailerMagic)
	buf.Write(trailer[:])
	return buf.Bytes(), blocks, hashOff
}

// createRun writes rows (live tuples, insertion order; hashes parallel) as
// run seq for store s — temp file first, renamed into place so a crash
// never leaves a partial run under a run name — and returns it opened with
// one reference. sync fsyncs the file before the rename (checkpoint and
// bulk-load runs must be durable before the manifest names them; auto-
// flush runs may skip it, their rows are still in the WAL). The intern
// dictionary is synced first when the run is: a durable run must never
// reference atoms the dictionary could lose.
func createRun(s *Store, seq uint64, arity int, rows []term.Tuple, hashes []uint64, sync bool) (*run, error) {
	data, blocks, hashOff := encodeRun(s.dict, arity, rows, hashes, s.compress())
	if sync {
		if err := s.dict.sync(); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(s.dir, runName(seq))
	tmp := path + ".tmp"
	f, err := s.fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, storage.IOFault("run-write", tmp, err)
	}
	_, err = f.Write(data)
	if err == nil && sync {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Close()
		_ = s.fsys.Remove(tmp)
		return nil, storage.IOFault("run-write", tmp, err)
	}
	if err := f.Close(); err != nil {
		_ = s.fsys.Remove(tmp)
		return nil, storage.IOFault("run-write", tmp, err)
	}
	if err := s.fsys.Rename(tmp, path); err != nil {
		_ = s.fsys.Remove(tmp)
		return nil, storage.IOFault("run-write", path, err)
	}
	rf, err := s.fsys.Open(path)
	if err != nil {
		return nil, storage.IOFault("run-write", path, err)
	}
	r := &run{
		seq: seq, path: path, f: rf, arity: arity,
		nrows: int32(len(rows)), blocks: blocks,
		v2: true, dict: s.dict, hashOff: hashOff,
	}
	if !s.opts.NoBloom {
		r.bloom = bloomFrom(hashes)
	}
	r.synced.Store(sync)
	r.refs.Store(1)
	return r, nil
}

// openRun reopens a run file after restart. RUN2 files read only the
// trailer and footer — block offsets, row count, bloom filter — and defer
// the chain index until a probe needs it; nothing decodes tuple bytes.
// Legacy RUN1 files (no footer) re-scan every block the old way, feeding
// each decoded row to observe (distinct-value digests, for manifests that
// predate digest persistence). Corruption is an error: runs reachable
// from a manifest were fsynced before the manifest named them, and
// unreachable ones are swept before opening.
func openRun(s *Store, path string, seq uint64, observe func(term.Tuple)) (*run, error) {
	f, err := s.fsys.Open(path)
	if err != nil {
		return nil, storage.IOFault("run-open", path, err)
	}
	var magic [len(runMagic2)]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		_ = f.Close()
		return nil, storage.IOFault("run-open", path, err)
	}
	switch string(magic[:]) {
	case runMagic2:
		r, err := openRun2(s, f, path, seq)
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		return r, nil
	case runMagic1:
		r, err := openRun1(s, f, path, seq, observe)
		if err != nil {
			_ = f.Close()
			return nil, err
		}
		return r, nil
	}
	_ = f.Close()
	return nil, &storage.CorruptError{Artifact: "run-header", Path: path, Run: seq,
		Offset: 0, Detail: "bad run magic"}
}

// openRun2 loads a footer-indexed run from its tail.
func openRun2(s *Store, f fsio.File, path string, seq uint64) (*run, error) {
	corrupt := func(artifact string, off int64, detail string) error {
		return &storage.CorruptError{Artifact: artifact, Path: path, Run: seq,
			Offset: off, Detail: detail}
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, storage.IOFault("run-open", path, err)
	}
	if fi.Size() < int64(runTrailerLen) {
		return nil, corrupt("run-trailer", fi.Size(), "truncated run trailer")
	}
	trailerOff := fi.Size() - int64(runTrailerLen)
	var trailer [runTrailerLen]byte
	if _, err := f.ReadAt(trailer[:], trailerOff); err != nil {
		return nil, storage.IOFault("run-open", path, err)
	}
	if string(trailer[16:]) != runTrailerMagic {
		return nil, corrupt("run-trailer", trailerOff, "bad run trailer magic")
	}
	footOff := int64(binary.LittleEndian.Uint64(trailer[0:8]))
	footLen := int64(binary.LittleEndian.Uint32(trailer[8:12]))
	sum := binary.LittleEndian.Uint32(trailer[12:16])
	if footOff < int64(len(runMagic2)) || footOff+footLen+int64(runTrailerLen) != fi.Size() {
		return nil, corrupt("run-trailer", trailerOff, "bad run footer bounds")
	}
	foot := make([]byte, footLen)
	if _, err := f.ReadAt(foot, footOff); err != nil {
		return nil, storage.IOFault("run-open", path, err)
	}
	if crc32.ChecksumIEEE(foot) != sum {
		return nil, corrupt("run-footer", footOff, "run footer checksum mismatch")
	}
	// Arity lives in the header; it is a handful of bytes.
	var head [len(runMagic2) + binary.MaxVarintLen64]byte
	n, err := f.ReadAt(head[:], 0)
	if err != nil && n < len(runMagic2)+1 {
		return nil, storage.IOFault("run-open", path, err)
	}
	arity, an := binary.Uvarint(head[len(runMagic2):n])
	if an <= 0 {
		return nil, corrupt("run-header", int64(len(runMagic2)), "truncated arity")
	}
	r := &run{seq: seq, path: path, f: f, arity: int(arity), v2: true, dict: s.dict}

	rf, artifact, detail := parseRunFooter(foot, int64(len(runMagic2)+an))
	if detail != "" {
		return nil, corrupt(artifact, footOff, detail)
	}
	r.blocks = rf.blocks
	r.nrows = rf.nrows
	r.hashOff = rf.hashOff
	if !s.opts.NoBloom {
		r.bloom = rf.bloom
	}
	r.synced.Store(true) // manifest-reachable, so it was fsynced
	r.refs.Store(1)
	return r, nil
}

// runFooter is the parsed form of a RUN2 footer.
type runFooter struct {
	blocks  []blockMeta
	nrows   int32
	hashOff int64
	bloom   *bloomFilter
}

// parseRunFooter decodes a (CRC-verified) RUN2 footer whose first block
// starts at dataStart. On failure it returns the artifact class
// ("run-footer" or "run-bloom") and a non-empty detail.
func parseRunFooter(foot []byte, dataStart int64) (runFooter, string, string) {
	var rf runFooter
	rd := foot
	nblocks, n := binary.Uvarint(rd)
	if n <= 0 {
		return rf, "run-footer", "truncated run footer"
	}
	rd = rd[n:]
	off := dataStart
	for i := uint64(0); i < nblocks; i++ {
		psize, n2 := binary.Uvarint(rd)
		if n2 <= 0 {
			return rf, "run-footer", "truncated run footer"
		}
		rd = rd[n2:]
		brows, n3 := binary.Uvarint(rd)
		if n3 <= 0 {
			return rf, "run-footer", "truncated run footer"
		}
		rd = rd[n3:]
		rf.blocks = append(rf.blocks, blockMeta{off: off, size: int32(psize) + 8, nrows: int32(brows)})
		off += int64(psize) + 8
	}
	nrows, n := binary.Uvarint(rd)
	if n <= 0 {
		return rf, "run-footer", "truncated run footer"
	}
	rd = rd[n:]
	rf.nrows = int32(nrows)
	hashOff, n := binary.Uvarint(rd)
	if n <= 0 {
		return rf, "run-footer", "truncated run footer"
	}
	rd = rd[n:]
	rf.hashOff = int64(hashOff)
	bloom, _, ok := readBloom(rd)
	if !ok {
		return rf, "run-bloom", "bad run bloom filter"
	}
	rf.bloom = bloom
	return rf, "", ""
}

// openRun1 loads a legacy run by scanning it: offsets, hashes, and chains
// are rebuilt from the decoded blocks, and a bloom filter is built in
// memory so probe paths treat both formats alike.
func openRun1(s *Store, f fsio.File, path string, seq uint64, observe func(term.Tuple)) (*run, error) {
	data, err := s.fsys.ReadFile(path)
	if err != nil {
		return nil, storage.IOFault("run-open", path, err)
	}
	corrupt := func(artifact string, off int64, detail string) error {
		return &storage.CorruptError{Artifact: artifact, Path: path, Run: seq,
			Offset: off, Detail: detail}
	}
	pos := len(runMagic1)
	arityU, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, corrupt("run-header", int64(pos), "truncated arity")
	}
	pos += n
	r := &run{seq: seq, path: path, f: f, arity: int(arityU), dict: s.dict}
	for pos < len(data) {
		if pos+8 > len(data) {
			return nil, corrupt("run-block", int64(pos), "truncated block header")
		}
		size := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
		sum := binary.LittleEndian.Uint32(data[pos+4 : pos+8])
		if pos+8+size > len(data) {
			return nil, corrupt("run-block", int64(pos), "truncated block")
		}
		payload := data[pos+8 : pos+8+size]
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, corrupt("run-block", int64(pos), "block checksum mismatch")
		}
		rows, err := decodeLegacyBlock(payload)
		if err != nil {
			return nil, corrupt("run-block", int64(pos), err.Error())
		}
		r.blocks = append(r.blocks, blockMeta{off: int64(pos), size: int32(size) + 8, nrows: int32(len(rows))})
		for _, t := range rows {
			r.hashes = append(r.hashes, t.Hash())
			if observe != nil {
				observe(t)
			}
		}
		r.nrows += int32(len(rows))
		pos += 8 + size
	}
	if !s.opts.NoBloom {
		r.bloom = bloomFrom(r.hashes)
	}
	r.buildIndex()
	r.idxReady.Store(true)
	r.synced.Store(true)
	r.refs.Store(1)
	return r, nil
}

// decodeLegacyBlock decodes one RUN1 block payload (length-prefixed
// tuples, no encoding byte).
func decodeLegacyBlock(payload []byte) ([]term.Tuple, error) {
	br := bufio.NewReader(bytes.NewReader(payload))
	nrows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	// Legacy blocks carry no fixed row bound, but every row costs at
	// least one byte — clamp the pre-allocation so a corrupt count cannot
	// size an arbitrary slice (the decode loop then fails naturally when
	// the stream runs dry).
	capHint := nrows
	if capHint > uint64(len(payload)) {
		capHint = uint64(len(payload))
	}
	rows := make([]term.Tuple, 0, capHint)
	for i := uint64(0); i < nrows; i++ {
		t, err := term.ReadTuple(br)
		if err != nil {
			return nil, err
		}
		rows = append(rows, t)
	}
	return rows, nil
}

// buildIndex chains the rows by cached hash, walking from the last slot
// down so every chain runs in ascending slot order.
func (r *run) buildIndex() {
	r.heads, r.shift = storage.NewHeads((len(r.hashes) + 1) / 2)
	r.next = make([]int32, len(r.hashes))
	for i := len(r.hashes) - 1; i >= 0; i-- {
		b := storage.BucketOf(r.hashes[i], r.shift)
		r.next[i] = r.heads[b]
		r.heads[b] = int32(i) + 1
	}
}

// chain returns slot+1 of the first row in h's hash chain (0 = empty);
// next links the rest. Chains mix hashes that share a bucket, so callers
// compare hashes[slot] with h. The index must be resident (ensureIndex).
func (r *run) chain(h uint64) int32 { return r.heads[storage.BucketOf(h, r.shift)] }

// block returns the decoded rows of block bi, via the cache.
func (r *run) block(c *blockCache, st *storage.Stats, bi int) ([]term.Tuple, error) {
	if rows, ok := c.get(r.seq, int32(bi)); ok {
		atomic.AddInt64(&st.CacheHits, 1)
		return rows, nil
	}
	bm := r.blocks[bi]
	buf := make([]byte, bm.size)
	if _, err := r.f.ReadAt(buf, bm.off); err != nil {
		return nil, storage.IOFault("run-read", r.path, err)
	}
	size := int(binary.LittleEndian.Uint32(buf[0:4]))
	sum := binary.LittleEndian.Uint32(buf[4:8])
	if size != len(buf)-8 {
		return nil, &storage.CorruptError{Artifact: "block-header", Path: r.path, Run: r.seq,
			Offset: bm.off, Detail: fmt.Sprintf("block %d length field does not match footer", bi)}
	}
	if crc32.ChecksumIEEE(buf[8:]) != sum {
		return nil, &storage.CorruptError{Artifact: "run-block", Path: r.path, Run: r.seq,
			Offset: bm.off, Detail: fmt.Sprintf("block %d checksum mismatch", bi)}
	}
	var rows []term.Tuple
	var err error
	if r.v2 {
		rows, err = decodeBlockPayload(r.dict, buf[8:], r.arity)
	} else {
		rows, err = decodeLegacyBlock(buf[8:])
	}
	if err != nil {
		return nil, &storage.CorruptError{Artifact: "run-block", Path: r.path, Run: r.seq,
			Offset: bm.off, Detail: fmt.Sprintf("block %d: %v", bi, err)}
	}
	atomic.AddInt64(&st.BlocksRead, 1)
	c.put(r.seq, int32(bi), rows)
	return rows, nil
}

// tupleAt returns the row at slot, via the cache.
func (r *run) tupleAt(c *blockCache, st *storage.Stats, slot int32) (term.Tuple, error) {
	bi := int(slot) / rowsPerBlock
	rows, err := r.block(c, st, bi)
	if err != nil {
		return nil, err
	}
	return rows[int(slot)%rowsPerBlock], nil
}

// scan yields every row with tomb visibility decided by visible (nil =
// live view: any tombstone hides the row), in slot order. Returns false if
// the consumer stopped early.
func (r *run) scan(c *blockCache, st *storage.Stats, visible func(slot int32) bool, yield func(term.Tuple) bool) (bool, error) {
	slot := int32(0)
	for bi := range r.blocks {
		rows, err := r.block(c, st, bi)
		if err != nil {
			return false, err
		}
		for _, t := range rows {
			ok := false
			if visible == nil {
				ok = r.tombAt(slot) == 0
			} else {
				ok = visible(slot)
			}
			if ok && !yield(t) {
				return false, nil
			}
			slot++
		}
	}
	return true, nil
}

// blockKey identifies a cached block; run sequence numbers are unique per
// store, so the cache is shared across all of a store's relations.
type blockKey struct {
	run   uint64
	block int32
}

// blockCache is a small mutex-guarded LRU of decoded blocks. Decoded rows
// are immutable and may be handed to any number of concurrent readers; the
// mutex covers only the map/list bookkeeping.
type blockCache struct {
	mu    sync.Mutex
	cap   int
	m     map[blockKey]*cacheEnt
	head  *cacheEnt // most recently used
	tail  *cacheEnt
	count int
}

type cacheEnt struct {
	key        blockKey
	rows       []term.Tuple
	prev, next *cacheEnt
}

func newBlockCache(capacity int) *blockCache {
	if capacity <= 0 {
		capacity = 512
	}
	return &blockCache{cap: capacity, m: make(map[blockKey]*cacheEnt, capacity)}
}

func (c *blockCache) get(run uint64, block int32) ([]term.Tuple, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.m[blockKey{run, block}]
	if e == nil {
		return nil, false
	}
	c.moveFront(e)
	return e.rows, true
}

func (c *blockCache) put(run uint64, block int32, rows []term.Tuple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := blockKey{run, block}
	if e := c.m[k]; e != nil {
		e.rows = rows
		c.moveFront(e)
		return
	}
	e := &cacheEnt{key: k, rows: rows}
	c.m[k] = e
	c.pushFront(e)
	c.count++
	for c.count > c.cap {
		old := c.tail
		c.unlink(old)
		delete(c.m, old.key)
		c.count--
	}
}

// dropRun evicts every cached block of a run (the run was deleted).
func (c *blockCache) dropRun(run uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.m {
		if k.run == run {
			c.unlink(e)
			delete(c.m, k)
			c.count--
		}
	}
}

func (c *blockCache) pushFront(e *cacheEnt) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *blockCache) unlink(e *cacheEnt) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *blockCache) moveFront(e *cacheEnt) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
