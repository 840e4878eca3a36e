package storage

import (
	"fmt"
	"sync"
	"testing"

	"gluenail/internal/term"
)

// stressRelation builds an nRows relation with nRows/keysPerCol distinct
// values in column 0.
func stressRelation(nRows, keys int, policy IndexPolicy, stats *Stats) *Relation {
	rel := NewRelation(term.NewString("r"), 2, policy, stats)
	for i := 0; i < nRows; i++ {
		rel.Insert(term.Tuple{term.NewInt(int64(i % keys)), term.NewInt(int64(i))})
	}
	return rel
}

// TestConcurrentLookupDuringIndexBuild hammers one adaptive relation with
// concurrent Lookups and Scans so the adaptive index build triggers while
// other readers are mid-lookup. Run under -race, this is the regression
// test for the readers-OR-writer concurrency model: every reader must see
// either the scan path or a fully published index, never a partial one.
func TestConcurrentLookupDuringIndexBuild(t *testing.T) {
	const (
		nRows      = 4000
		keys       = 100
		goroutines = 16
		lookups    = 200
	)
	for _, policy := range []IndexPolicy{IndexAdaptive, IndexAlways, IndexNever} {
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			stats := &Stats{}
			rel := stressRelation(nRows, keys, policy, stats)
			perKey := nRows / keys
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < lookups; i++ {
						k := (g*31 + i) % keys
						key := term.Tuple{term.NewInt(int64(k)), {}}
						got := 0
						rel.Lookup(0b01, key, func(u term.Tuple) bool {
							if u[0].Int() != int64(k) {
								errs <- fmt.Errorf("lookup %d yielded key %d", k, u[0].Int())
								return false
							}
							got++
							return true
						})
						if got != perKey {
							errs <- fmt.Errorf("lookup %d returned %d rows, want %d", k, got, perKey)
							return
						}
						if i%16 == 0 {
							n := 0
							rel.Scan(func(term.Tuple) bool { n++; return true })
							if n != nRows {
								errs <- fmt.Errorf("scan saw %d rows, want %d", n, nRows)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if policy == IndexNever && stats.IndexBuilds != 0 {
				t.Fatalf("IndexNever built %d indexes", stats.IndexBuilds)
			}
			if policy != IndexNever && stats.IndexBuilds > 1 {
				t.Fatalf("one mask was indexed %d times; the per-mask build guard must run once",
					stats.IndexBuilds)
			}
		})
	}
}

// TestPrepareRead checks that the parallel-section boundary hook builds a
// decided index up front: after PrepareRead announces enough lookups to
// pay the adaptive build cost, concurrent readers probe without triggering
// any further builds.
func TestPrepareRead(t *testing.T) {
	stats := &Stats{}
	rel := stressRelation(1000, 50, IndexAdaptive, stats)
	rel.PrepareRead(0b01, 2) // 2 lookups * 1000 rows >= AdaptiveFactor * 1000
	if !rel.HasIndex(0b01) {
		t.Fatal("PrepareRead did not build the decided index")
	}
	if stats.IndexBuilds != 1 {
		t.Fatalf("IndexBuilds = %d, want 1", stats.IndexBuilds)
	}
	scannedBefore := stats.RowsScanned
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				key := term.Tuple{term.NewInt(int64(k)), {}}
				rel.Lookup(0b01, key, func(term.Tuple) bool { return true })
			}
		}()
	}
	wg.Wait()
	if stats.IndexBuilds != 1 {
		t.Fatalf("lookups after PrepareRead rebuilt the index (%d builds)", stats.IndexBuilds)
	}
	if stats.RowsScanned != scannedBefore {
		t.Fatalf("lookups fell back to scanning %d rows despite the index",
			stats.RowsScanned-scannedBefore)
	}

	// Degenerate masks are ignored.
	rel.PrepareRead(0, 100)
	rel.PrepareRead(rel.fullMask(), 100)
	if stats.IndexBuilds != 1 {
		t.Fatalf("degenerate PrepareRead masks built indexes (%d builds)", stats.IndexBuilds)
	}
}

// TestPrepareReadBelowThreshold checks that announcing too few lookups
// leaves the adaptive decision unchanged: no index, scans still answer.
func TestPrepareReadBelowThreshold(t *testing.T) {
	stats := &Stats{}
	rel := stressRelation(1000, 50, IndexAdaptive, stats)
	rel.PrepareRead(0b01, 1) // 1*1000 < AdaptiveFactor*1000
	if rel.HasIndex(0b01) {
		t.Fatal("PrepareRead built an index before the adaptive threshold")
	}
	// The pre-paid credit still counts: one more scan's worth tips it over.
	rel.PrepareRead(0b01, 1)
	if !rel.HasIndex(0b01) {
		t.Fatal("accumulated PrepareRead credit did not build the index")
	}
}

// TestAdaptiveCreditAtomic hammers the adaptive credit counter itself: many
// goroutines race single Lookups on a cold mask so the per-mask atomic
// counter takes every increment concurrently. Exactly one index build must
// result, and no credit may be lost — with AdaptiveFactor scans' worth of
// credit outstanding the index must exist afterwards. Run under -race this
// is the regression test for the lock-free credit path.
func TestAdaptiveCreditAtomic(t *testing.T) {
	const goroutines = 32
	for round := 0; round < 20; round++ {
		stats := &Stats{}
		rel := stressRelation(500, 25, IndexAdaptive, stats)
		var ready, done sync.WaitGroup
		start := make(chan struct{})
		ready.Add(goroutines)
		done.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			g := g
			go func() {
				defer done.Done()
				ready.Done()
				<-start
				key := term.Tuple{term.NewInt(int64(g % 25)), {}}
				rel.Lookup(0b01, key, func(term.Tuple) bool { return true })
			}()
		}
		ready.Wait()
		close(start)
		done.Wait()
		if stats.IndexBuilds != 1 {
			t.Fatalf("round %d: IndexBuilds = %d, want exactly 1", round, stats.IndexBuilds)
		}
		if !rel.HasIndex(0b01) {
			t.Fatalf("round %d: index missing after %d concurrent lookups", round, goroutines)
		}
	}
}

// TestAdaptiveCreditNoLoss races exactly AdaptiveFactor single-lookup
// PrepareRead announcements: if any concurrent increment were lost, the
// accumulated credit would fall short and no index would be built.
func TestAdaptiveCreditNoLoss(t *testing.T) {
	for round := 0; round < 200; round++ {
		rel := stressRelation(200, 10, IndexAdaptive, &Stats{})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < AdaptiveFactor; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				rel.PrepareRead(0b01, 1)
			}()
		}
		close(start)
		wg.Wait()
		if !rel.HasIndex(0b01) {
			t.Fatalf("round %d: %d racing announcements lost credit; index not built",
				round, AdaptiveFactor)
		}
	}
}
