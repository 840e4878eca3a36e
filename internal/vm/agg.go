package vm

import (
	"fmt"
	"math"
	"sort"

	"gluenail/internal/ast"
	"gluenail/internal/plan"
	"gluenail/internal/term"
)

// applyAggregate computes the aggregate over the supplementary tuples —
// per §3.3, over every tuple, not over the projection, so duplicates count
// — partitioned by the group_by registers in effect. A bound destination
// register selects tuples whose aggregate equals it; an unbound one is
// extended onto every tuple of the group. Large row sets evaluate the
// per-row work (group keys, aggregate argument) across the worker pool;
// the fold itself stays a sequential in-order reduction so floating-point
// aggregates are bit-identical at every worker count.
func (f *frame) applyAggregate(b *plan.Aggregate, rows [][]term.Value,
	state *stmtState) ([][]term.Value, error) {
	workers := f.m.workerCount()
	par := workers > 1 && len(rows) >= f.m.fanOutThreshold()
	var groups [][]int // row indices per group, groups in first-seen order
	if len(state.groupRegs) == 0 {
		// No group_by in effect: every row is in the single group.
		all := make([]int, len(rows))
		for ri := range all {
			all[ri] = ri
		}
		groups = [][]int{all}
	} else {
		groups = f.groupRows(rows, state.groupRegs, par, workers)
	}
	vals := make([]term.Value, len(rows))
	evalRow := func(ri int, row []term.Value, _ func([]term.Value)) error {
		v, err := evalExpr(b.Arg, row)
		if err != nil {
			return err
		}
		vals[ri] = v
		return nil
	}
	if par {
		if _, err := f.parMapRows(rows, workers, evalRow); err != nil {
			return nil, err
		}
	} else {
		for ri, row := range rows {
			if err := evalRow(ri, row, nil); err != nil {
				return nil, err
			}
		}
	}
	var out [][]term.Value
	for _, idxs := range groups {
		gv := make([]term.Value, len(idxs))
		for i, ri := range idxs {
			gv[i] = vals[ri]
		}
		agg, err := aggregate(b.Op, gv)
		if err != nil {
			return nil, err
		}
		for _, ri := range idxs {
			row := rows[ri]
			if b.DestBound {
				ok, err := compareValues(ast.CmpEq, row[b.Dest], agg)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, row)
				}
			} else {
				cp := cloneRow(row)
				cp[b.Dest] = agg
				out = append(out, cp)
			}
		}
	}
	return out, nil
}

// groupRows partitions row indices by the values of the grouping
// registers, groups in first-seen order: rows are hashed in place (a
// parallel pass for large row sets), a pooled open-addressing table maps
// each hash to its group, and collisions compare the live registers
// directly. No group-key bytes are built.
func (f *frame) groupRows(rows [][]term.Value, regs []int, par bool, workers int) [][]int {
	hashes := make([]uint64, len(rows))
	if par {
		ms := morsels(len(rows), workers)
		f.m.runMorsels(ms, workers, func(mi int) {
			for ri := ms[mi].start; ri < ms[mi].end; ri++ {
				hashes[ri] = rowHashLive(rows[ri], regs)
			}
		})
		if f.m.govTripped() {
			// Drained pool may have skipped morsels; redo sequentially so
			// grouping stays correct until the abort surfaces.
			for ri := range rows {
				hashes[ri] = rowHashLive(rows[ri], regs)
			}
		}
	} else {
		for ri := range rows {
			hashes[ri] = rowHashLive(rows[ri], regs)
		}
	}
	t := f.grabTable(len(rows))
	var groups [][]int
	cand := 0
	eq := func(g int32) bool { return rowsEqualLive(rows[groups[g][0]], rows[cand], regs) }
	for ri := range rows {
		cand = ri
		if g, found := t.findOrAdd(hashes[ri], int32(len(groups)), eq); found {
			groups[g] = append(groups[g], ri)
		} else {
			groups = append(groups, []int{ri})
		}
	}
	f.releaseTable(t)
	return groups
}

// aggregate computes one aggregate operator over the value list (§3.3).
// The arbitrary operator deterministically returns the smallest value.
func aggregate(op string, vals []term.Value) (term.Value, error) {
	if len(vals) == 0 {
		return term.Value{}, fmt.Errorf("aggregate %s over empty set", op)
	}
	switch op {
	case "count":
		return term.NewInt(int64(len(vals))), nil
	case "min", "arbitrary":
		best := vals[0]
		for _, v := range vals[1:] {
			if less, _ := numericLess(v, best); less {
				best = v
			}
		}
		return best, nil
	case "max":
		best := vals[0]
		for _, v := range vals[1:] {
			if less, _ := numericLess(best, v); less {
				best = v
			}
		}
		return best, nil
	case "sum", "product", "mean", "std_dev":
		fs := make([]float64, len(vals))
		allInt := true
		for i, v := range vals {
			x, ok := v.Num()
			if !ok {
				return term.Value{}, fmt.Errorf("%s over non-numeric value %v", op, v)
			}
			fs[i] = x
			if v.Kind() != term.Int {
				allInt = false
			}
		}
		// Canonical fold order: floating-point folds are not associative,
		// and the row order within a group depends on the join order the
		// physical planner chose. Sorting the values first makes every
		// ordering (textual, greedy, stats-driven) produce bit-identical
		// aggregates.
		sort.Float64s(fs)
		switch op {
		case "sum":
			s := 0.0
			for _, x := range fs {
				s += x
			}
			if allInt {
				return term.NewInt(int64(s)), nil
			}
			return term.NewFloat(s), nil
		case "product":
			p := 1.0
			for _, x := range fs {
				p *= x
			}
			if allInt {
				return term.NewInt(int64(p)), nil
			}
			return term.NewFloat(p), nil
		case "mean":
			s := 0.0
			for _, x := range fs {
				s += x
			}
			return term.NewFloat(s / float64(len(fs))), nil
		default: // std_dev (population)
			s := 0.0
			for _, x := range fs {
				s += x
			}
			mu := s / float64(len(fs))
			ss := 0.0
			for _, x := range fs {
				ss += (x - mu) * (x - mu)
			}
			return term.NewFloat(math.Sqrt(ss / float64(len(fs)))), nil
		}
	}
	return term.Value{}, fmt.Errorf("unknown aggregate operator %q", op)
}

// numericLess orders values: numerics numerically, anything else by the
// term order.
func numericLess(a, b term.Value) (bool, error) {
	af, aok := a.Num()
	bf, bok := b.Num()
	if aok && bok {
		return af < bf, nil
	}
	return a.Compare(b) < 0, nil
}
