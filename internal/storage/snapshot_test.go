package storage

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"gluenail/internal/term"
)

// snapAll drains a snapshot relation through Scan.
func snapAll(r Rel) []term.Tuple {
	var out []term.Tuple
	r.Scan(func(t term.Tuple) bool { out = append(out, t); return true })
	return out
}

func tuplesEqual(a, b []term.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestSnapshotSeesCaptureState(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	r := s.Ensure(name, 2)
	for i := int64(0); i < 10; i++ {
		r.Insert(it(i, i+1))
	}
	s.AdvanceCSN()

	snap := s.Snapshot()
	before := snapAll(mustSnapRel(t, snap, name, 2))

	// Writer keeps going: deletes, inserts, commits.
	r.Delete(it(3, 4))
	r.Insert(it(100, 101))
	s.AdvanceCSN()

	after := snapAll(mustSnapRel(t, snap, name, 2))
	if !tuplesEqual(before, after) {
		t.Fatalf("snapshot changed under writer:\nbefore %v\nafter  %v", before, after)
	}
	if len(before) != 10 {
		t.Fatalf("snapshot sees %d tuples, want 10", len(before))
	}
	// The live view sees the new state.
	if r.Contains(it(3, 4)) || !r.Contains(it(100, 101)) {
		t.Fatal("live view missing writer's changes")
	}
	// A fresh snapshot sees the new state too.
	snap2 := s.Snapshot()
	sr2 := mustSnapRel(t, snap2, name, 2)
	if sr2.Contains(it(3, 4)) || !sr2.Contains(it(100, 101)) {
		t.Fatal("fresh snapshot missing committed changes")
	}
}

func TestSnapshotUncommittedDeleteInvisibleToNewSnapshot(t *testing.T) {
	// A delete stamped at commitCSN+1 must stay invisible to snapshots taken
	// at the current CSN until AdvanceCSN publishes it... but snapshots are
	// only captured at statement boundaries (no writer in flight), so the
	// observable contract is: a snapshot taken BEFORE the delete commits
	// still sees the tuple; one taken after does not.
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	r := s.Ensure(name, 1)
	r.Insert(it(1))
	r.Insert(it(2))
	s.AdvanceCSN()

	old := s.Snapshot()
	r.Delete(it(1))
	s.AdvanceCSN()
	fresh := s.Snapshot()

	if got := len(snapAll(mustSnapRel(t, old, name, 1))); got != 2 {
		t.Fatalf("old snapshot sees %d tuples, want 2", got)
	}
	if got := len(snapAll(mustSnapRel(t, fresh, name, 1))); got != 1 {
		t.Fatalf("fresh snapshot sees %d tuples, want 1", got)
	}
}

func TestSnapshotSurvivesCompactionAndClear(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	r := s.Ensure(name, 1)
	for i := int64(0); i < 100; i++ {
		r.Insert(it(i))
	}
	s.AdvanceCSN()
	snap := s.Snapshot()
	before := snapAll(mustSnapRel(t, snap, name, 1))

	// Delete enough to trigger compaction (tombs > n && tombs > 32).
	for i := int64(0); i < 80; i++ {
		r.Delete(it(i))
	}
	s.AdvanceCSN()
	if got := snapAll(mustSnapRel(t, snap, name, 1)); !tuplesEqual(before, got) {
		t.Fatalf("snapshot changed across compaction: %d vs %d tuples", len(before), len(got))
	}

	r.Clear()
	s.AdvanceCSN()
	if got := snapAll(mustSnapRel(t, snap, name, 1)); !tuplesEqual(before, got) {
		t.Fatalf("snapshot changed across Clear: %d vs %d tuples", len(before), len(got))
	}
	if live := r.Len(); live != 0 {
		t.Fatalf("live Len = %d after Clear", live)
	}
}

func TestSnapshotLookupAndIndexes(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	r := s.Ensure(name, 2)
	for i := int64(0); i < 50; i++ {
		r.Insert(it(i%5, i))
	}
	s.AdvanceCSN()
	snap := s.Snapshot()
	sr := mustSnapRel(t, snap, name, 2)

	// Writer deletes some rows the snapshot must keep serving.
	for i := int64(0); i < 50; i += 2 {
		r.Delete(it(i%5, i))
	}
	s.AdvanceCSN()

	count := func() int {
		n := 0
		sr.Lookup(1, it(2, 0), func(t term.Tuple) bool { n++; return true })
		return n
	}
	first := count()
	if first != 10 {
		t.Fatalf("snapshot lookup returned %d rows, want 10", first)
	}
	// Hammer the same mask until the shared index builds, and check
	// the answer is identical through the index.
	sr.(*SnapRel).PrepareRead(1, 1000)
	if sr.(*SnapRel).index(1) == nil {
		t.Fatal("shared index not built after PrepareRead")
	}
	if got := count(); got != first {
		t.Fatalf("indexed lookup returned %d rows, want %d", got, first)
	}
	// Contains consults visibility too.
	if !sr.Contains(it(0, 0)) {
		t.Fatal("snapshot lost a tuple deleted after capture")
	}
	if sr.Contains(it(99, 99)) {
		t.Fatal("snapshot invented a tuple")
	}
	// Len counts visible tuples at capture.
	if sr.Len() != 50 {
		t.Fatalf("snapshot Len = %d, want 50", sr.Len())
	}
}

func TestSnapshotMissingRelationIsEmpty(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	snap := s.Snapshot()
	r := snap.Ensure(term.NewString("ghost"), 3)
	if r.Len() != 0 {
		t.Fatal("placeholder relation not empty")
	}
	if _, ok := snap.Get(term.NewString("ghost2"), 1); ok {
		t.Fatal("Get invented a relation")
	}
	var n int
	r.Scan(func(term.Tuple) bool { n++; return true })
	if n != 0 {
		t.Fatal("placeholder scan yielded tuples")
	}
}

func TestSnapshotWritesPanic(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	s.Ensure(name, 1).Insert(it(1))
	snap := s.Snapshot()
	sr := mustSnapRel(t, snap, name, 1)
	for op, fn := range map[string]func(){
		"Insert":      func() { sr.Insert(it(9)) },
		"Delete":      func() { sr.Delete(it(1)) },
		"Clear":       func() { sr.Clear() },
		"UnionDiff":   func() { sr.UnionDiff([]term.Tuple{it(9)}) },
		"ModifyByKey": func() { sr.ModifyByKey(1, []term.Tuple{it(9)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on snapshot relation did not panic", op)
				}
			}()
			fn()
		}()
	}
}

// TestSnapshotConcurrentWithWriter races 8 snapshot readers (scans, lookups,
// Contains, index builds) against a committing writer; run with -race.
func TestSnapshotConcurrentWithWriter(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	r := s.Ensure(name, 2)
	for i := int64(0); i < 200; i++ {
		r.Insert(it(i%10, i))
	}
	s.AdvanceCSN()

	snap := s.Snapshot()
	want := len(snapAll(mustSnapRel(t, snap, name, 2)))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sr := mustSnapRel(nil, snap, name, 2)
			for iter := 0; ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				if got := len(snapAll(sr)); got != want {
					errs <- fmt.Errorf("worker %d iter %d: scan saw %d tuples, want %d", w, iter, got, want)
					return
				}
				n := 0
				sr.Lookup(1, it(int64(iter%10), 0), func(term.Tuple) bool { n++; return true })
				if n != want/10 {
					errs <- fmt.Errorf("worker %d iter %d: lookup saw %d rows, want %d", w, iter, n, want/10)
					return
				}
				if !sr.Contains(it(int64(iter%10), int64(iter%200/10*10+iter%10))) {
					// Tuple layout: it(i%10, i) for i in [0,200); probe one
					// that exists: (k, i) with i%10==k.
					_ = n
				}
			}
		}(w)
	}

	// Writer: interleave deletes, inserts, commits, compaction, a Clear at
	// the end.
	for round := 0; round < 50; round++ {
		for i := int64(0); i < 4; i++ {
			r.Delete(it((int64(round)+i)%10, int64(round)*4+i))
			r.Insert(it(int64(round)%10, 1000+int64(round)*4+i))
		}
		s.AdvanceCSN()
	}
	r.Clear()
	s.AdvanceCSN()
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// lookupRows drains a Lookup.
func lookupRows(r Rel, mask uint32, key term.Tuple) []term.Tuple {
	var out []term.Tuple
	r.Lookup(mask, key, func(t term.Tuple) bool { out = append(out, t); return true })
	return out
}

// scanRows is the filtered-scan answer a Lookup must reproduce, rows in
// the same order.
func scanRows(r Rel, mask uint32, key term.Tuple) []term.Tuple {
	var out []term.Tuple
	r.Scan(func(t term.Tuple) bool {
		if t.EqualCols(key, mask) {
			out = append(out, t)
		}
		return true
	})
	return out
}

// sharedRel returns a committed two-column relation of n rows (i%keys, i).
func sharedRel(n, keys int) (*MemStore, *Relation, term.Value) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("e")
	r := s.Ensure(name, 2).(*Relation)
	for i := 0; i < n; i++ {
		r.Insert(it(int64(i%keys), int64(i)))
	}
	s.AdvanceCSN()
	return s, r, name
}

// TestSnapshotSharedIndexBuiltOnce: fresh snapshots of an unchanged
// relation share one adaptive index, and every probe answers rows in the
// order of a filtered scan.
func TestSnapshotSharedIndexBuiltOnce(t *testing.T) {
	s, _, name := sharedRel(2000, 97)
	var builds int64
	for q := 0; q < 100; q++ {
		snap := s.Snapshot()
		sr := mustSnapRel(t, snap, name, 2)
		for k := 0; k < 3; k++ {
			key := it(int64((q*3+k)%97), 0)
			got, want := lookupRows(sr, 1, key), scanRows(sr, 1, key)
			if len(want) == 0 || !tuplesEqual(got, want) {
				t.Fatalf("snapshot %d key %v: lookup %v, filtered scan %v", q, key, got, want)
			}
		}
		builds += snap.Stats().IndexBuilds
	}
	if builds != 1 {
		t.Fatalf("100 snapshots of one header built %d indexes, want 1", builds)
	}
}

// TestSnapshotSharedIndexDeleteAfterBuild: a delete after the shared index
// was built stays visible to the older snapshot and invisible to the newer
// one, both probing the same index — whichever of the two built it.
func TestSnapshotSharedIndexDeleteAfterBuild(t *testing.T) {
	s, r, name := sharedRel(200, 10)
	old := mustSnapRel(t, s.Snapshot(), name, 2).(*SnapRel)
	old.PrepareRead(1, 1000) // built before the delete, by the older snapshot
	old.PrepareRead(3, 1000)
	victim := it(3, 13)
	r.Delete(victim)
	s.AdvanceCSN()
	fresh := mustSnapRel(t, s.Snapshot(), name, 2).(*SnapRel)
	fresh.PrepareRead(2, 1000) // built after the delete, by the newer snapshot
	for _, mask := range []uint32{1, 2, 3} {
		if fresh.index(mask) == nil || fresh.index(mask) != old.index(mask) {
			t.Fatalf("mask %b: snapshots of one header do not share the index", mask)
		}
		has := func(sr *SnapRel) bool {
			for _, u := range lookupRows(sr, mask, victim) {
				if u.Equal(victim) {
					return true
				}
			}
			return false
		}
		if !has(old) {
			t.Fatalf("mask %b: older snapshot lost a row deleted after its capture", mask)
		}
		if has(fresh) {
			t.Fatalf("mask %b: newer snapshot sees a row deleted before its capture", mask)
		}
	}
	if !old.Contains(victim) || fresh.Contains(victim) {
		t.Fatal("Contains disagrees with the snapshots' visibility")
	}
	if got := len(lookupRows(fresh, 1, it(3, 0))); got != 19 {
		t.Fatalf("newer snapshot's lookup returned %d rows, want 19", got)
	}
}

// TestSnapshotSharedIndexUncommittedDelete repeats
// TestSnapshotUncommittedDeleteInvisibleToNewSnapshot through the shared
// index: a dead stamp the writer has not committed yet leaves the row
// visible, and only snapshots after the commit lose it.
func TestSnapshotSharedIndexUncommittedDelete(t *testing.T) {
	s, r, name := sharedRel(100, 10)
	old := mustSnapRel(t, s.Snapshot(), name, 2).(*SnapRel)
	old.PrepareRead(1, 1000)
	r.Delete(it(1, 1)) // stamped, not yet committed
	mid := mustSnapRel(t, s.Snapshot(), name, 2).(*SnapRel)
	s.AdvanceCSN()
	fresh := mustSnapRel(t, s.Snapshot(), name, 2).(*SnapRel)
	for _, c := range []struct {
		who  string
		sr   *SnapRel
		want int
	}{{"old", old, 10}, {"mid-statement", mid, 10}, {"fresh", fresh, 9}} {
		if c.sr.index(1) != old.index(1) {
			t.Fatalf("%s snapshot does not probe the shared index", c.who)
		}
		if got := len(lookupRows(c.sr, 1, it(1, 0))); got != c.want {
			t.Fatalf("%s snapshot sees %d rows, want %d", c.who, got, c.want)
		}
	}
}

// TestSnapshotSharedIndexAfterAppend: a snapshot of a longer header never
// probes the index built over a shorter one, and sees every new row.
func TestSnapshotSharedIndexAfterAppend(t *testing.T) {
	s, r, name := sharedRel(100, 10)
	shortSnap := s.Snapshot()
	short := mustSnapRel(t, shortSnap, name, 2).(*SnapRel)
	short.PrepareRead(1, 1000)
	for i := int64(100); i < 110; i++ {
		r.Insert(it(4, i))
	}
	s.AdvanceCSN()
	long := mustSnapRel(t, s.Snapshot(), name, 2).(*SnapRel)
	if long.index(1) != nil {
		t.Fatal("longer header reuses the index over the shorter one")
	}
	for _, sr := range []*SnapRel{long, short} {
		want := scanRows(sr, 1, it(4, 0))
		if got := lookupRows(sr, 1, it(4, 0)); !tuplesEqual(got, want) {
			t.Fatalf("before build: lookup %v, scan %v", got, want)
		}
	}
	long.PrepareRead(1, 1000)
	if long.index(1) == nil || long.index(1) == short.index(1) {
		t.Fatal("longer header did not build its own index")
	}
	if got := len(lookupRows(long, 1, it(4, 0))); got != 20 {
		t.Fatalf("longer header sees %d rows for key 4, want 20", got)
	}
	if got := len(lookupRows(short, 1, it(4, 0))); got != 10 {
		t.Fatalf("shorter header sees %d rows for key 4, want 10", got)
	}
	if n := shortSnap.Stats().IndexBuilds; n != 1 {
		t.Fatalf("shorter header rebuilt its index after being displaced: %d builds", n)
	}
	// An index the shorter header builds now stays private: it may not
	// displace the newer header's set from the relation.
	short.PrepareRead(2, 1000)
	newest := mustSnapRel(t, s.Snapshot(), name, 2).(*SnapRel)
	if short.index(2) == nil || newest.index(1) != long.index(1) {
		t.Fatal("relation does not serve the newest header's indexes")
	}
}

// TestSnapshotSharedIndexReleasedOnRewrite: compaction and Clear drop the
// relation's shared indexes, and a snapshot of the old header does not
// publish them again.
func TestSnapshotSharedIndexReleasedOnRewrite(t *testing.T) {
	s, r, name := sharedRel(100, 10)
	stale := mustSnapRel(t, s.Snapshot(), name, 2).(*SnapRel)
	mustSnapRel(t, s.Snapshot(), name, 2).(*SnapRel).PrepareRead(1, 1000)
	if r.snapIdx.Load() == nil {
		t.Fatal("no shared index published")
	}
	for i := int64(0); i < 80; i++ { // tombs > n && tombs > 32: compacts
		r.Delete(it(i%10, i))
	}
	s.AdvanceCSN()
	if r.snapIdx.Load() != nil {
		t.Fatal("compaction left the shared index pinning the old array")
	}
	stale.PrepareRead(3, 1000)
	if r.snapIdx.Load() != nil {
		t.Fatal("a snapshot of the pre-compaction header republished its index")
	}
	if got := len(lookupRows(stale, 3, it(5, 5))); got != 1 {
		t.Fatalf("stale snapshot lookup returned %d rows, want 1", got)
	}

	mustSnapRel(t, s.Snapshot(), name, 2).(*SnapRel).PrepareRead(1, 1000)
	if r.snapIdx.Load() == nil {
		t.Fatal("no shared index over the compacted array")
	}
	r.Clear()
	s.AdvanceCSN()
	if r.snapIdx.Load() != nil {
		t.Fatal("Clear left the shared index pinning the old array")
	}
}

// TestSnapshotSharedIndexConcurrentBuild races 8 goroutines, each on its
// own fresh snapshot of one header, to build the same mask: one build,
// identical answers. Run with -race.
func TestSnapshotSharedIndexConcurrentBuild(t *testing.T) {
	s, _, name := sharedRel(5000, 50)
	snaps := make([]*SnapStore, 8)
	for i := range snaps {
		snaps[i] = s.Snapshot()
	}
	answers := make([][]term.Tuple, len(snaps))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range snaps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sr := mustSnapRel(nil, snaps[i], name, 2)
			<-start
			for k := 0; k < 4; k++ {
				answers[i] = append(answers[i], lookupRows(sr, 1, it(int64(k*7), 0))...)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	var builds int64
	for i, snap := range snaps {
		builds += snap.Stats().IndexBuilds
		if !tuplesEqual(answers[i], answers[0]) {
			t.Fatalf("snapshot %d answered %d rows, snapshot 0 %d", i, len(answers[i]), len(answers[0]))
		}
	}
	if builds != 1 {
		t.Fatalf("8 racing snapshots built %d indexes, want 1", builds)
	}
	if len(answers[0]) != 400 {
		t.Fatalf("answers hold %d rows, want 400", len(answers[0]))
	}
}

// TestSnapshotSharedIndexUnderWriter: readers capture fresh snapshots at
// statement boundaries while the writer appends, deletes and compacts, so
// shared sets are published, displaced and released concurrently; every
// indexed answer must equal the same snapshot's filtered scan. Run with
// -race.
func TestSnapshotSharedIndexUnderWriter(t *testing.T) {
	s, r, name := sharedRel(400, 8)
	var boundary sync.Mutex // statement boundaries: capture never overlaps a write
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; ; q++ {
				select {
				case <-stop:
					return
				default:
				}
				boundary.Lock()
				sr := mustSnapRel(nil, s.Snapshot(), name, 2)
				boundary.Unlock()
				for k := 0; k < 3; k++ {
					key := it(int64((w+q+k)%8), 0)
					got, want := lookupRows(sr, 1, key), scanRows(sr, 1, key)
					if !tuplesEqual(got, want) {
						errs <- fmt.Errorf("reader %d query %d: lookup %d rows, scan %d", w, q, len(got), len(want))
						return
					}
				}
			}
		}(w)
	}
	for i := int64(400); i < 2400; i++ {
		boundary.Lock()
		r.Insert(it(i%8, i))
		r.Delete(it((i-400)%8, i-400)) // tombstones pile up and compact
		s.AdvanceCSN()
		boundary.Unlock()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestSnapshotSharedIndexMemoryBound: an index shared past the snapshots
// that built it retains at most 32 bytes per slot (a map of per-bucket
// tuple slices retained about 68).
func TestSnapshotSharedIndexMemoryBound(t *testing.T) {
	const rows = 15000
	s, _, name := sharedRel(rows, 4096)
	sr := mustSnapRel(t, s.Snapshot(), name, 2).(*SnapRel)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	sr.Lookup(1, it(0, 0), func(term.Tuple) bool { return true }) // credit map
	before := heap()
	sr.PrepareRead(1, 1000)
	after := heap()
	ix := sr.index(1)
	if ix == nil {
		t.Fatal("index not built")
	}
	runtime.KeepAlive(sr)
	per := float64(int64(after)-int64(before)) / rows
	t.Logf("shared index over %d slots retains %.1f B per slot", rows, per)
	if per > 32 {
		t.Fatalf("shared index retains %.1f B per slot, want <= 32", per)
	}
	if per := float64(4*(cap(ix.heads)+cap(ix.next))) / rows; per > 32 {
		t.Fatalf("index arrays hold %.1f B per slot, want <= 32", per)
	}
}

func mustSnapRel(t *testing.T, snap *SnapStore, name term.Value, arity int) Rel {
	r, ok := snap.Get(name, arity)
	if !ok {
		if t != nil {
			t.Helper()
			t.Fatalf("snapshot missing relation %v/%d", name, arity)
		}
		panic("snapshot missing relation")
	}
	return r
}
