// Multi-version snapshot reads: SnapStore/SnapRel give a concurrent read
// session an immutable, statement-boundary view of a MemStore while the
// (single) writer keeps committing.
//
// The mechanism is copy-on-write through the garbage collector rather than
// copy-on-read: capturing a snapshot copies only slice headers (tuples,
// cached hashes, dead stamps) under the writer's statement-boundary lock.
// Appends by the writer land beyond the captured length; structural
// rewrites (compact, Clear) swap in fresh backing arrays; and deletions
// stamp the shared dead slice with the deleting statement's CSN, which
// snapshot readers load atomically and compare against their snapshot CSN.
// A slot is visible at snapshot CSN S iff its dead stamp is 0 or > S. The
// writer never blocks on readers, readers never block the writer, and a
// snapshot's memory is reclaimed by the GC once the last reader drops it.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gluenail/internal/term"
)

// Snapshot captures an immutable view of every relation in the store at
// the current committed CSN. It must be called at a statement boundary —
// while no writer is mutating the store — which the public API guarantees
// by holding the system's writer lock; the returned view may then be read
// concurrently with later writers.
func (s *MemStore) Snapshot() *SnapStore {
	ss := &SnapStore{
		csn:  s.commitCSN.Load(),
		rels: make(map[string]*SnapRel, len(s.rels)),
	}
	for k, r := range s.rels {
		ss.rels[k] = newSnapRel(r, ss.csn, &ss.stats)
	}
	return ss
}

// SnapStore is the Store view a snapshot session reads: every relation is
// a SnapRel frozen at the capture CSN, relations created later do not
// exist, and mutation through it is a programming error (it panics).
type SnapStore struct {
	csn   uint64
	stats Stats
	// mu guards rels: reads come from resolve paths (possibly concurrent
	// morsel workers), and Ensure may install an empty placeholder.
	mu   sync.RWMutex
	rels map[string]*SnapRel
}

var _ Store = (*SnapStore)(nil)

// CSN returns the commit sequence number the snapshot was captured at.
func (s *SnapStore) CSN() uint64 { return s.csn }

// Ensure implements Store. A missing relation yields an empty read-only
// placeholder (writes to it panic, as on every snapshot relation).
func (s *SnapStore) Ensure(name term.Value, arity int) Rel {
	k := relKey(name, arity)
	s.mu.RLock()
	r, ok := s.rels[k]
	s.mu.RUnlock()
	if ok {
		return r
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.rels[k]; ok {
		return r
	}
	r = &SnapRel{name: name, arity: arity, csn: s.csn, stats: &s.stats}
	s.rels[k] = r
	return r
}

// Get implements Store.
func (s *SnapStore) Get(name term.Value, arity int) (Rel, bool) {
	s.mu.RLock()
	r, ok := s.rels[relKey(name, arity)]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return r, true
}

// Drop implements Store as a no-op: the snapshot is immutable.
func (s *SnapStore) Drop(name term.Value, arity int) {}

// Names implements Store.
func (s *SnapStore) Names() []RelName {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]RelName, 0, len(s.rels))
	for _, r := range s.rels {
		out = append(out, RelName{Name: r.name, Arity: r.arity})
	}
	return out
}

// Stats implements Store; a snapshot session accounts its reads here, not
// against the live store.
func (s *SnapStore) Stats() *Stats { return &s.stats }

// SetJournal implements Store as a no-op: snapshots never mutate, so there
// is nothing to journal.
func (s *SnapStore) SetJournal(j Journal) {}

// SnapRel is one relation frozen at a snapshot CSN: the captured slice
// headers plus the visibility rule. Read methods filter by the shared
// dead stamps; write methods panic — the executor only routes reads at a
// snapshot (queries cannot contain EDB updates), so a write reaching here
// is a bug worth failing loudly on, and the VM's panic containment turns
// it into a typed error on the session's private machine.
type SnapRel struct {
	name  term.Value
	arity int
	csn   uint64
	// Captured headers; the writer appends past len and rewrites via
	// fresh arrays, so everything below len is frozen except the dead
	// stamps, which are loaded atomically.
	tuples []term.Tuple
	hashes []uint64
	dead   []uint64
	// src is the live relation, consulted only for planner statistics
	// (DistinctEst/StatsEpoch, both safe against the writer); nil for
	// empty placeholders.
	src     *Relation
	version uint64
	stats   *Stats

	// lenOnce lazily counts visible tuples: the planner asks Len, most
	// relations in a snapshot are never read, and the count is O(slots).
	lenOnce sync.Once
	n       int

	// gen is the source's rewrite count at capture; with len(tuples) it
	// orders this header against the one a shared index set covers.
	gen uint64

	// Adaptive indexes over the captured header live in a snapIndexSet
	// shared through src by every snapshot of the same header. local is
	// the last set this snapshot installed an index into: it keeps those
	// indexes reachable once a newer header displaces the set from src,
	// and it is the only home of indexes built while src already served a
	// newer header. Scan credit stays per snapshot: mu guards the map,
	// and each counter accrues atomically so concurrent morsel readers
	// never lose updates.
	local  atomic.Pointer[snapIndexSet]
	mu     sync.RWMutex
	credit map[uint32]*atomic.Int64
}

var _ Rel = (*SnapRel)(nil)

func newSnapRel(r *Relation, csn uint64, stats *Stats) *SnapRel {
	return &SnapRel{
		name:    r.name,
		arity:   r.arity,
		csn:     csn,
		tuples:  r.tuples,
		hashes:  r.hashes,
		dead:    r.dead,
		src:     r,
		version: r.version,
		stats:   stats,
		gen:     r.rewrites.Load(),
	}
}

// visible reports whether slot i exists at the snapshot CSN: live (stamp
// 0) or deleted by a statement that committed after the capture.
func (r *SnapRel) visible(i int) bool {
	d := atomic.LoadUint64(&r.dead[i])
	return d == 0 || d > r.csn
}

// Name implements Rel.
func (r *SnapRel) Name() term.Value { return r.name }

// Arity implements Rel.
func (r *SnapRel) Arity() int { return r.arity }

// Len implements Rel; the visible-tuple count is computed on first use.
func (r *SnapRel) Len() int {
	r.lenOnce.Do(func() {
		for i := range r.tuples {
			if r.visible(i) {
				r.n++
			}
		}
	})
	return r.n
}

// Version implements Rel with the version captured at the snapshot: the
// view never changes, so neither does its version.
func (r *SnapRel) Version() uint64 { return r.version }

// StatsEpoch implements Rel, delegating to the live relation: planner
// statistics describe the present, and any plan is correct against the
// snapshot — only its cost model benefits from freshness.
func (r *SnapRel) StatsEpoch() uint64 {
	if r.src == nil {
		return 0
	}
	return r.src.StatsEpoch()
}

// DistinctEst implements Rel, delegating to the live relation (guarded
// against the writer by its stats mutex).
func (r *SnapRel) DistinctEst(col int) int {
	if r.src == nil {
		return 0
	}
	return r.src.DistinctEst(col)
}

func (r *SnapRel) readOnly(op string) string {
	return fmt.Sprintf("storage: %s on relation %v/%d of a read-only snapshot (CSN %d)",
		op, r.name, r.arity, r.csn)
}

// Insert implements Rel by panicking: snapshots are read-only.
func (r *SnapRel) Insert(t term.Tuple) bool { panic(r.readOnly("Insert")) }

// Delete implements Rel by panicking: snapshots are read-only.
func (r *SnapRel) Delete(t term.Tuple) bool { panic(r.readOnly("Delete")) }

// Clear implements Rel by panicking: snapshots are read-only.
func (r *SnapRel) Clear() { panic(r.readOnly("Clear")) }

// UnionDiff implements Rel by panicking: snapshots are read-only.
func (r *SnapRel) UnionDiff(batch []term.Tuple) []term.Tuple {
	panic(r.readOnly("UnionDiff"))
}

// ModifyByKey implements Rel by panicking: snapshots are read-only.
func (r *SnapRel) ModifyByKey(mask uint32, rows []term.Tuple) {
	panic(r.readOnly("ModifyByKey"))
}

// Contains implements Rel: a hash-assisted scan over the captured slots
// (the live hash chains are writer-owned and unversioned), with scan
// credit accruing toward a shared whole-tuple index.
func (r *SnapRel) Contains(t term.Tuple) bool {
	full := fullColsMask(r.arity)
	ix := r.index(full)
	if ix == nil {
		ix = r.creditAndMaybeBuild(full, 1)
	}
	if ix != nil {
		found := false
		r.probe(ix, t, func(term.Tuple) bool { found = true; return false })
		return found
	}
	h := t.Hash()
	for i := range r.tuples {
		if r.hashes[i] == h && r.visible(i) && r.tuples[i].Equal(t) {
			return true
		}
	}
	return false
}

// Scan implements Rel; visible tuples are visited in insertion order.
func (r *SnapRel) Scan(yield func(term.Tuple) bool) {
	atomic.AddInt64(&r.stats.RowsScanned, int64(len(r.tuples)))
	for i, t := range r.tuples {
		if !r.visible(i) {
			continue
		}
		if !yield(t) {
			return
		}
	}
}

// Lookup implements Rel: through a shared index when one has been built
// over this header (probes enumerate insertion order, like the live
// relation's), a filtered scan otherwise, accruing credit toward building
// one.
func (r *SnapRel) Lookup(mask uint32, key term.Tuple, yield func(term.Tuple) bool) {
	if mask == 0 || len(r.tuples) == 0 {
		r.Scan(yield)
		return
	}
	ix := r.index(mask)
	if ix == nil {
		ix = r.creditAndMaybeBuild(mask, 1)
	}
	if ix != nil {
		r.probe(ix, key, yield)
		return
	}
	atomic.AddInt64(&r.stats.RowsScanned, int64(len(r.tuples)))
	for i, t := range r.tuples {
		if r.visible(i) && t.EqualCols(key, mask) {
			if !yield(t) {
				return
			}
		}
	}
}

// PrepareRead implements Rel: it pre-pays the adaptive accounting for the
// imminent lookups and builds the shared index now if the policy decides
// it should exist, so concurrent morsel readers find it published.
func (r *SnapRel) PrepareRead(mask uint32, lookups int) {
	if mask == 0 || len(r.tuples) == 0 || lookups <= 0 {
		return
	}
	if r.index(mask) == nil {
		r.creditAndMaybeBuild(mask, int64(lookups))
	}
}

// All implements Rel; the visible tuples in insertion order.
func (r *SnapRel) All() []term.Tuple {
	out := make([]term.Tuple, 0, len(r.tuples))
	for i, t := range r.tuples {
		if r.visible(i) {
			out = append(out, t)
		}
	}
	return out
}

// snapIndexSet is the set of adaptive indexes over one captured header of
// a relation — its backing array (base) and length (n) — shared by every
// snapshot that captured that header. Below n the array never changes
// (appends land past it, rewrites allocate anew), so an index over its
// slots stays valid for all those snapshots; each probe filters by the
// prober's own visibility. A published set is immutable: adding a mask
// publishes a copy. gen is the relation's rewrite count when the header
// was captured, and (gen, n) orders headers, so a set for a newer header
// is never replaced by one for an older header.
type snapIndexSet struct {
	base *term.Tuple
	n    int
	gen  uint64
	ixs  []*snapIndex
}

// covers reports whether the set indexes exactly r's header.
func (s *snapIndexSet) covers(r *SnapRel) bool {
	return s.base == &r.tuples[0] && s.n == len(r.tuples)
}

// newer reports whether the set's header postdates r's.
func (s *snapIndexSet) newer(r *SnapRel) bool {
	return s.gen > r.gen || s.gen == r.gen && s.n > len(r.tuples)
}

// find returns the set's index for mask, built or not.
func (s *snapIndexSet) find(mask uint32) *snapIndex {
	for _, ix := range s.ixs {
		if ix.mask == mask {
			return ix
		}
	}
	return nil
}

// snapIndex hashes one column mask of a header's slots into chains of
// slot numbers, without per-bucket slices: heads[b] holds slot+1 of the
// first slot in bucket b (0 = empty) and next[i] the slot+1 of the one
// after slot i. Every slot below the header's length is chained, dead or
// not, so the index serves snapshots at any CSN; chains run in ascending
// slot (insertion) order, so probes yield rows in scan order. The index
// is built at most once, by whichever snapshot first earns it.
type snapIndex struct {
	mask  uint32
	once  sync.Once
	ready atomic.Bool // heads and next are built
	shift uint
	heads []int32
	next  []int32
}

// build chains every slot of r's header, walking from the last slot down
// so each chain ends up in ascending slot order. The whole-tuple mask
// hashes with the whole-tuple hash the header caches per slot.
func (ix *snapIndex) build(r *SnapRel) {
	n := len(r.tuples)
	ix.heads, ix.shift = NewHeads(n)
	ix.next = make([]int32, n)
	full := ix.mask == fullColsMask(r.arity)
	for i := n - 1; i >= 0; i-- {
		h := r.hashes[i]
		if !full {
			h = r.tuples[i].HashCols(ix.mask)
		}
		b := BucketOf(h, ix.shift)
		ix.next[i] = ix.heads[b]
		ix.heads[b] = int32(i) + 1
	}
	atomic.AddInt64(&r.stats.IndexBuilds, 1)
	ix.ready.Store(true)
}

// index returns the built index for mask over this snapshot's header:
// from the relation's shared set when it covers the header, else from
// this snapshot's own set.
func (r *SnapRel) index(mask uint32) *snapIndex {
	if len(r.tuples) == 0 {
		return nil
	}
	s := r.local.Load()
	if r.src != nil {
		if shared := r.src.snapIdx.Load(); shared != nil && shared.covers(r) {
			s = shared
		}
	}
	if s == nil {
		return nil
	}
	if ix := s.find(mask); ix != nil && ix.ready.Load() {
		return ix
	}
	return nil
}

// creditAndMaybeBuild charges `scans` full scans toward an index on mask
// and, when this snapshot's accumulated credit crosses the adaptive
// threshold, returns the index — built now unless another snapshot of the
// same header already built it or is building it (then this call waits on
// its sync.Once). Same policy as the live relation, minus the per-store
// knob: a snapshot always indexes adaptively, since it cannot fall back on
// the writer's indexes. Nil means keep scanning.
func (r *SnapRel) creditAndMaybeBuild(mask uint32, scans int64) *snapIndex {
	rows := int64(len(r.tuples))
	if rows == 0 {
		return nil
	}
	r.mu.RLock()
	c := r.credit[mask]
	r.mu.RUnlock()
	if c == nil {
		r.mu.Lock()
		if c = r.credit[mask]; c == nil {
			if r.credit == nil {
				r.credit = make(map[uint32]*atomic.Int64)
			}
			c = new(atomic.Int64)
			r.credit[mask] = c
		}
		r.mu.Unlock()
	}
	if c.Add(scans*rows) < AdaptiveFactor*rows {
		return nil
	}
	ix := r.indexSlot(mask)
	ix.once.Do(func() { ix.build(r) })
	return ix
}

// indexSlot returns the (possibly unbuilt) index for mask over this
// snapshot's header, installing it if absent: in the relation's shared set
// unless that set serves a newer header or the relation was rewritten
// since capture, in this snapshot's own set otherwise.
func (r *SnapRel) indexSlot(mask uint32) *snapIndex {
	if r.src != nil && r.src.rewrites.Load() == r.gen {
		if s := r.install(&r.src.snapIdx, mask); s != nil {
			// A compact or Clear between the check above and the
			// install stored nil first; take the stale set back out
			// so it does not pin the rewritten relation's old array.
			if r.src.rewrites.Load() != r.gen {
				r.src.snapIdx.CompareAndSwap(s, nil)
			}
			r.local.Store(s)
			return s.find(mask)
		}
	}
	return r.install(&r.local, mask).find(mask)
}

// install makes the set in p cover this snapshot's header with an index
// slot for mask, publishing by compare-and-swap, and returns that set; nil
// if p serves a newer header, which this snapshot must not displace.
func (r *SnapRel) install(p *atomic.Pointer[snapIndexSet], mask uint32) *snapIndexSet {
	for {
		cur := p.Load()
		next := &snapIndexSet{base: &r.tuples[0], n: len(r.tuples), gen: r.gen}
		switch {
		case cur == nil:
		case cur.covers(r):
			if cur.find(mask) != nil {
				return cur
			}
			next.ixs = append(next.ixs, cur.ixs...)
		case cur.newer(r):
			return nil
		}
		next.ixs = append(next.ixs, &snapIndex{mask: mask})
		if p.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// probe answers a lookup on ix's columns from the shared index, yielding
// the rows visible at this snapshot in insertion order.
func (r *SnapRel) probe(ix *snapIndex, key term.Tuple, yield func(term.Tuple) bool) {
	full := ix.mask == fullColsMask(r.arity)
	h := key.Hash()
	if !full {
		h = key.HashCols(ix.mask)
	}
	for i := ix.heads[BucketOf(h, ix.shift)]; i != 0; i = ix.next[i-1] {
		slot := int(i - 1)
		if full && r.hashes[slot] != h {
			continue
		}
		t := r.tuples[slot]
		if !t.EqualCols(key, ix.mask) || !r.visible(slot) {
			continue
		}
		atomic.AddInt64(&r.stats.RowsProbed, 1)
		if !yield(t) {
			return
		}
	}
}

// fullColsMask returns the bitmask selecting every column of an
// arity-column relation.
func fullColsMask(arity int) uint32 { return (uint32(1) << uint(arity)) - 1 }
