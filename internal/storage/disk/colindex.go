// Column indexes over run slots: the partial-key access path of disk
// snapshot reads (§10: an index is built once the scans it saves would
// pay for it, and then kept).
//
// A run is immutable, so an index over its slot numbers is valid for every
// snapshot that pins the run and never needs invalidation; it lives on the
// run, is shared by all of them, and is freed with the run. Compaction and
// flush outputs are new runs and earn their own. Every slot is chained,
// tombstoned or not, so one index serves snapshots at any CSN: a probe
// applies the prober's visibility rule and re-checks the fetched row.
package disk

import (
	"sync"
	"sync/atomic"

	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// colIndex chains one column mask of a run's slots by the hash of those
// columns: heads[b] holds slot+1 of the first slot in bucket b (0 =
// empty) and next[i] the slot+1 of the one after slot i, in ascending slot
// order, so probes enumerate matches exactly as a filtered scan would.
// tags keeps 32 bits of each slot's column hash, so bucket collisions are
// rejected without a block read. With one head per two rows the index
// costs at most 12 bytes a row.
//
// credit accrues scanned rows from every snapshot reading the run, so
// short-lived autocommit snapshots earn the index together; once builds
// it exactly once and ready publishes the slices.
type colIndex struct {
	mask   uint32
	credit atomic.Int64
	once   sync.Once
	ready  atomic.Bool
	shift  uint
	heads  []int32
	next   []int32
	tags   []uint32
}

// colTag is the part of a column hash a colIndex keeps per slot.
func colTag(h uint64) uint32 { return uint32(h ^ h>>32) }

// colIndex returns the run's index entry for mask, built or not,
// installing it on first use.
func (r *run) colIndex(mask uint32) *colIndex {
	if ix := findColIndex(r.colIxs.Load(), mask); ix != nil {
		return ix
	}
	r.colMu.Lock()
	defer r.colMu.Unlock()
	cur := r.colIxs.Load()
	if ix := findColIndex(cur, mask); ix != nil {
		return ix
	}
	var next []*colIndex
	if cur != nil {
		next = append(next, *cur...)
	}
	ix := &colIndex{mask: mask}
	next = append(next, ix)
	r.colIxs.Store(&next)
	return ix
}

func findColIndex(ixs *[]*colIndex, mask uint32) *colIndex {
	if ixs != nil {
		for _, ix := range *ixs {
			if ix.mask == mask {
				return ix
			}
		}
	}
	return nil
}

// columnIndex charges `scans` scans of the run toward its index on mask
// and returns the index once the policy says it should exist — building
// it now if no other reader has (racing readers wait on the build). Nil
// means scan the run. The build reads the run's blocks through the cache
// and accounts them, and the build itself, to st.
func (r *run) columnIndex(c *blockCache, st *storage.Stats, policy storage.IndexPolicy, mask uint32, scans int64) *colIndex {
	if policy == storage.IndexNever || r.nrows == 0 {
		return nil
	}
	ix := r.colIndex(mask)
	if ix.ready.Load() {
		return ix
	}
	n := int64(r.nrows)
	if policy != storage.IndexAlways && ix.credit.Add(scans*n) < storage.AdaptiveFactor*n {
		return nil
	}
	var err error
	ix.once.Do(func() { err = ix.build(r, c, st) })
	if err != nil {
		panic(err)
	}
	if !ix.ready.Load() {
		// Another reader's build failed; its caller reported the fault.
		return nil
	}
	return ix
}

// build chains every slot of the run. Pass one records each slot's bucket
// in next while reading the blocks in order; pass two walks the slots
// from the last down, turning buckets into ascending-slot chains.
func (ix *colIndex) build(r *run, c *blockCache, st *storage.Stats) error {
	n := int(r.nrows)
	heads, shift := storage.NewHeads((n + 1) / 2)
	next := make([]int32, n)
	tags := make([]uint32, n)
	slot := 0
	_, err := r.scan(c, st, func(int32) bool { return true }, func(t term.Tuple) bool {
		h := t.HashCols(ix.mask)
		next[slot] = int32(storage.BucketOf(h, shift))
		tags[slot] = colTag(h)
		slot++
		return true
	})
	if err != nil {
		return err
	}
	for i := n - 1; i >= 0; i-- {
		b := next[i]
		next[i] = heads[b]
		heads[b] = int32(i) + 1
	}
	ix.heads, ix.shift, ix.next, ix.tags = heads, shift, next, tags
	atomic.AddInt64(&st.IndexBuilds, 1)
	ix.ready.Store(true)
	return nil
}

// probe yields the run's rows whose mask columns equal key's and that
// visible admits, in slot order. Returns false if the consumer stopped.
func (ix *colIndex) probe(r *run, c *blockCache, st *storage.Stats, key term.Tuple,
	visible func(slot int32) bool, yield func(term.Tuple) bool) (bool, error) {
	h := key.HashCols(ix.mask)
	tag := colTag(h)
	for i := ix.heads[storage.BucketOf(h, ix.shift)]; i != 0; i = ix.next[i-1] {
		slot := i - 1
		if ix.tags[slot] != tag || !visible(slot) {
			continue
		}
		t, err := r.tupleAt(c, st, slot)
		if err != nil {
			return false, err
		}
		if !t.EqualCols(key, ix.mask) {
			continue
		}
		atomic.AddInt64(&st.RowsProbed, 1)
		if !yield(t) {
			return false, nil
		}
	}
	return true, nil
}
