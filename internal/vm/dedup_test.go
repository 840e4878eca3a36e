package vm

import (
	"testing"

	"gluenail/internal/term"
)

// dedupInput builds rows over two live registers with every 4th row a
// duplicate of an earlier one and a sprinkling of unbound slots.
func dedupInput(n int) ([][]term.Value, []int) {
	rows := make([][]term.Value, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i%4 == 3:
			rows = append(rows, cloneRow(rows[i-2]))
		case i%7 == 0:
			rows = append(rows, []term.Value{{}, term.NewInt(int64(i % 50))})
		default:
			rows = append(rows, []term.Value{
				term.NewInt(int64(i % 100)), term.NewInt(int64(i % 13)),
			})
		}
	}
	return rows, []int{0, 1}
}

// TestDedupParallelMatchesSequential checks that the hash-partitioned
// parallel dedup keeps exactly the rows, in exactly the order, of the
// sequential first-occurrence pass.
func TestDedupParallelMatchesSequential(t *testing.T) {
	const n = 2000
	seqRows, live := dedupInput(n)
	parRows, _ := dedupInput(n)

	seqM := &frame{m: &Machine{Parallelism: 1}}
	parM := &frame{m: &Machine{Parallelism: 8, ParallelThreshold: 64}}
	seq := seqM.dedupRows(seqRows, live)
	par := parM.dedupRows(parRows, live)

	if len(seq) != len(par) {
		t.Fatalf("sequential kept %d rows, parallel kept %d", len(seq), len(par))
	}
	for i := range seq {
		for r := range seq[i] {
			sv, pv := seq[i][r], par[i][r]
			if sv.IsZero() != pv.IsZero() || (!sv.IsZero() && !sv.Equal(pv)) {
				t.Fatalf("row %d differs: sequential %v, parallel %v", i, seq[i], par[i])
			}
		}
	}
	if got := seqM.m.Stats.RowsDeduped; got != parM.m.Stats.RowsDeduped {
		t.Errorf("RowsDeduped: sequential %d, parallel %d", got, parM.m.Stats.RowsDeduped)
	}
	if len(seq) == n {
		t.Fatal("test input contained no duplicates; nothing was exercised")
	}
}
