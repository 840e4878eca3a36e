package disk

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// Tests for the run column indexes behind partial-key snapshot reads and
// for the order of the live relation's run index: a probe must enumerate
// exactly what a filtered scan at the same state would, in the same order.

// lookupRows returns what rel.Lookup yields for key on mask.
func lookupRows(rel storage.Rel, mask uint32, key term.Tuple) string {
	var out []term.Tuple
	rel.Lookup(mask, key, func(t term.Tuple) bool {
		out = append(out, t)
		return true
	})
	return fmt.Sprint(out)
}

// scanRows returns the rows of a full scan of rel that match key on mask.
func scanRows(rel storage.Rel, mask uint32, key term.Tuple) string {
	var out []term.Tuple
	rel.Scan(func(t term.Tuple) bool {
		if t.EqualCols(key, mask) {
			out = append(out, t)
		}
		return true
	})
	return fmt.Sprint(out)
}

// requireProbesMatchScan checks every key in 0..keys-1 on both columns.
func requireProbesMatchScan(t *testing.T, what string, rel storage.Rel, keys int) {
	t.Helper()
	for _, mask := range []uint32{1, 2} {
		for k := 0; k < keys; k++ {
			key := pair(k, k)
			if got, want := lookupRows(rel, mask, key), scanRows(rel, mask, key); got != want {
				t.Fatalf("%s: mask %d key %d: probe %s, scan %s", what, mask, k, got, want)
			}
		}
	}
}

// fillKeyed inserts n rows (i%7, i) and commits them.
func fillKeyed(st *Store, rel storage.Rel, n int) {
	for i := 0; i < n; i++ {
		rel.Insert(pair(i%7, i))
	}
	st.AdvanceCSN()
}

// openView captures a snapshot view of st.
func openView(t *testing.T, st *Store) *snapStore {
	t.Helper()
	v, err := st.SnapshotView()
	if err != nil {
		t.Fatal(err)
	}
	return v.(*snapStore)
}

// snapIndexBuilds sums the builds accounted to snapshot views.
func snapIndexBuilds(views ...*snapStore) int64 {
	var n int64
	for _, v := range views {
		n += atomic.LoadInt64(&v.Stats().IndexBuilds)
	}
	return n
}

// TestLiveRunIndexOrderAfterDelete deletes a run-resident row under a built
// live run index: the probe must keep the scan's insertion order.
func TestLiveRunIndexOrderAfterDelete(t *testing.T) {
	st := openTest(t, t.TempDir(), Options{Policy: storage.IndexAlways})
	defer st.Close()
	rel := st.Ensure(term.Intern("kv"), 2)
	for i := 0; i < 4; i++ {
		rel.Insert(pair(1, i))
	}
	if n := len(*rel.(*Rel).runs.Load()); n != 1 {
		t.Fatalf("%d runs, want the 4 rows flushed into 1", n)
	}
	key := pair(1, 0)
	lookupRows(rel, 1, key) // builds the run index
	if rel.(*Rel).runIx(1) == nil {
		t.Fatal("IndexAlways lookup built no run index")
	}
	for _, victim := range []term.Tuple{pair(1, 0), pair(1, 2)} {
		if !rel.Delete(victim) {
			t.Fatalf("delete %v failed", victim)
		}
		if got, want := lookupRows(rel, 1, key), scanRows(rel, 1, key); got != want {
			t.Fatalf("after deleting %v: probe %s, scan %s", victim, got, want)
		}
	}
}

// TestSnapshotRunIndexAgreesWithScan probes disk snapshots through run
// column indexes and compares every answer with a filtered scan of the
// same snapshot, across deletes on both sides of the capture, a compaction
// between capture and probe, and a reopened store.
func TestSnapshotRunIndexAgreesWithScan(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FlushRows: 64, Policy: storage.IndexAlways}
	st := openTest(t, dir, opts)
	rel := st.Ensure(term.Intern("kv"), 2)
	fillKeyed(st, rel, 300)
	r := rel.(*Rel)
	if n := len(*r.runs.Load()); n < 3 {
		t.Fatalf("%d runs, want several", n)
	}

	// Deleted before capture: hidden.
	for i := 0; i < 300; i += 5 {
		rel.Delete(pair(i%7, i))
	}
	st.AdvanceCSN()
	view := openView(t, st)
	snap, _ := view.Get(term.Intern("kv"), 2)
	if got := lookupRows(snap, 2, pair(0, 5)); got != "[]" {
		t.Fatalf("row deleted before capture is visible: %s", got)
	}
	requireProbesMatchScan(t, "deleted before capture", snap, 8)
	if snapIndexBuilds(view) == 0 {
		t.Fatal("IndexAlways snapshot lookups built no run index")
	}

	// Deleted after capture: still visible to the snapshot.
	for i := 1; i < 300; i += 5 {
		rel.Delete(pair(i%7, i))
	}
	st.AdvanceCSN()
	if got := lookupRows(snap, 2, pair(0, 1)); got != fmt.Sprint([]term.Tuple{pair(1, 1)}) {
		t.Fatalf("row deleted after capture: snapshot probe %s, want [[1 1]]", got)
	}
	requireProbesMatchScan(t, "deleted after capture", snap, 8)

	// A compaction installs between capture and probe: the snapshot keeps
	// probing its pinned runs; a new snapshot indexes the merged run.
	if !st.compactOne(r, 0, len(*r.runs.Load())) {
		t.Fatal("compactOne reported no progress")
	}
	requireProbesMatchScan(t, "compaction after capture", snap, 8)
	view2 := openView(t, st)
	snap2, _ := view2.Get(term.Intern("kv"), 2)
	requireProbesMatchScan(t, "snapshot of the compacted runs", snap2, 8)
	if n := snapIndexBuilds(view2); n != 2 {
		t.Fatalf("%d index builds over the merged run, want 1 per mask", n)
	}
	view.Close()
	view2.Close()

	// Reopen: RUN2 runs come back without any index and build theirs on
	// the first probe, without loading the whole-tuple hash section.
	if err := st.FlushBase(); err != nil {
		t.Fatal(err)
	}
	want := scanRows(rel, 1, pair(3, 0))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTest(t, dir, opts)
	defer st2.Close()
	view3 := openView(t, st2)
	defer view3.Close()
	snap3, _ := view3.Get(term.Intern("kv"), 2)
	if got := lookupRows(snap3, 1, pair(3, 0)); got != want {
		t.Fatalf("reopened probe %s, want %s", got, want)
	}
	if n := atomic.LoadInt64(&view3.Stats().IndexBuilds); n != int64(len(snap3.(*snapRel).runs)) {
		t.Fatalf("%d index builds on first probe after reopen, want one per run (%d)",
			n, len(snap3.(*snapRel).runs))
	}
	if n := atomic.LoadInt64(&view3.Stats().RunIndexLoads); n != 0 {
		t.Fatalf("a column probe loaded %d whole-tuple hash sections", n)
	}
	requireProbesMatchScan(t, "reopened store", snap3, 8)
}

// TestSnapshotRunIndexAdaptiveCredit checks the adaptive policy: credit
// from short-lived snapshots accrues on the run, so the second snapshot's
// lookup earns the index that a per-snapshot counter never would;
// IndexNever keeps scanning.
func TestSnapshotRunIndexAdaptiveCredit(t *testing.T) {
	for _, tc := range []struct {
		policy storage.IndexPolicy
		builds int64
	}{{storage.IndexAdaptive, 1}, {storage.IndexNever, 0}} {
		st := openTest(t, t.TempDir(), Options{FlushRows: 512, Policy: tc.policy})
		rel := st.Ensure(term.Intern("kv"), 2)
		fillKeyed(st, rel, 512)
		var builds int64
		for i := 0; i < 4; i++ {
			view := openView(t, st)
			snap, _ := view.Get(term.Intern("kv"), 2)
			if got, want := lookupRows(snap, 1, pair(i, 0)), scanRows(snap, 1, pair(i, 0)); got != want {
				t.Fatalf("policy %d: probe %s, scan %s", tc.policy, got, want)
			}
			builds += snapIndexBuilds(view)
			view.Close()
		}
		if builds != tc.builds {
			t.Fatalf("policy %d: %d builds over 4 one-lookup snapshots, want %d", tc.policy, builds, tc.builds)
		}
		st.Close()
	}
}

// TestSnapshotRunIndexConcurrentBuild races 8 snapshots on their first
// lookups: each (run, mask) is built exactly once, and every answer equals
// the filtered scan. Run with -race.
func TestSnapshotRunIndexConcurrentBuild(t *testing.T) {
	st := openTest(t, t.TempDir(), Options{FlushRows: 128, Policy: storage.IndexAlways})
	defer st.Close()
	rel := st.Ensure(term.Intern("kv"), 2)
	fillKeyed(st, rel, 512)
	nruns := len(*rel.(*Rel).runs.Load())
	views := make([]*snapStore, 8)
	for i := range views {
		v := openView(t, st)
		defer v.Close()
		views[i] = v
	}
	errs := make(chan error, len(views))
	var wg sync.WaitGroup
	for i, v := range views {
		wg.Add(1)
		go func(i int, v *snapStore) {
			defer wg.Done()
			snap, _ := v.Get(term.Intern("kv"), 2)
			for _, mask := range []uint32{1, 2} {
				key := pair(i%7, i)
				if got, want := lookupRows(snap, mask, key), scanRows(snap, mask, key); got != want {
					errs <- fmt.Errorf("snapshot %d mask %d: probe %s, scan %s", i, mask, got, want)
				}
			}
		}(i, v)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := snapIndexBuilds(views...); n != int64(2*nruns) {
		t.Fatalf("%d index builds, want exactly one per (run, mask) = %d", n, 2*nruns)
	}
}

// TestRunIndexMemoryBounds pins the per-row cost of the run indexes: a
// column index at most 16 bytes a row per mask, the whole-tuple chain
// index at most 8 bytes a row beyond the cached hashes.
func TestRunIndexMemoryBounds(t *testing.T) {
	for _, n := range []int{4097, 6000, 8192} {
		st := openTest(t, t.TempDir(), Options{FlushRows: n, Policy: storage.IndexAlways})
		rel := st.Ensure(term.Intern("kv"), 2)
		fillKeyed(st, rel, n)
		rn := (*rel.(*Rel).runs.Load())[0]
		if int(rn.nrows) != n {
			t.Fatalf("run holds %d rows, want %d", rn.nrows, n)
		}
		if err := rn.ensureIndex(st.Stats()); err != nil {
			t.Fatal(err)
		}
		if len(rn.hashes) != n || len(rn.next) != n {
			t.Fatalf("chain index covers %d/%d rows, want %d", len(rn.hashes), len(rn.next), n)
		}
		chain := float64(4*(len(rn.heads)+len(rn.next))) / float64(n)
		if chain > 8 {
			t.Fatalf("n=%d: whole-tuple chain index costs %.1f B/row beyond hashes, want <= 8", n, chain)
		}
		view := openView(t, st)
		snap, _ := view.Get(term.Intern("kv"), 2)
		lookupRows(snap, 1, pair(3, 0))
		ix := rn.colIndex(1)
		if !ix.ready.Load() {
			t.Fatal("IndexAlways lookup built no column index")
		}
		col := float64(4*(len(ix.heads)+len(ix.next)+len(ix.tags))) / float64(n)
		if col > 16 {
			t.Fatalf("n=%d: column index costs %.1f B/row, want <= 16", n, col)
		}
		view.Close()
		st.Close()
	}
}
