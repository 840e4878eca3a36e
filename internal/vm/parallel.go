// Morsel-driven intra-segment parallelism. The paper's pipelined strategy
// (§9) eliminates the per-tuple load and store of materialization; this
// file eliminates the single-core limit on top of it. Rows of a segment's
// supplementary relation are independent between pipeline breaks, so the
// executor partitions them into contiguous morsels, fans the morsels out
// to a worker pool (Leis et al.'s morsel-driven model), and runs the same
// batch kernels per worker. Each worker owns a private batch scratch and
// output buffer per morsel, and the per-morsel outputs are concatenated
// in input order — the merged row stream is byte-identical to what
// sequential execution produces, so dedup, aggregation, golden files, and
// sorted query output are unchanged by the worker count.
package vm

import (
	"sync"
	"sync/atomic"
	"time"

	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

const (
	// defaultParallelThreshold is the projected row count below which a
	// segment stays on the sequential path (goroutine fan-out costs more
	// than it saves on micro-queries).
	defaultParallelThreshold = 128
	// minMorselRows keeps morsels big enough that dispatch overhead stays
	// negligible next to per-row pipeline work.
	minMorselRows = 16
	// morselsPerWorker oversubscribes the morsel list so workers that draw
	// cheap morsels can steal more work instead of idling (join fan-out is
	// rarely uniform across the driver).
	morselsPerWorker = 4
)

// morsel is a contiguous range of supplementary rows.
type morsel struct{ start, end int }

// morsels splits n rows into contiguous ranges sized for the worker count.
func morsels(n, workers int) []morsel {
	per := n / (workers * morselsPerWorker)
	if per < minMorselRows {
		per = minMorselRows
	}
	if per > n {
		per = n
	}
	ms := make([]morsel, 0, (n+per-1)/per)
	for s := 0; s < n; s += per {
		e := s + per
		if e > n {
			e = n
		}
		ms = append(ms, morsel{start: s, end: e})
	}
	return ms
}

// panicBox carries the first panic out of a worker pool to the caller's
// goroutine: workers `defer box.capture()`, the caller calls rethrow after
// the pool has joined. Re-raising on the caller means the single recover
// at the CallProcContext boundary contains worker panics too, with no
// goroutine left running or leaked.
type panicBox struct {
	p atomic.Pointer[panicVal]
}

type panicVal struct{ v any }

func (b *panicBox) capture() {
	if r := recover(); r != nil {
		b.p.CompareAndSwap(nil, &panicVal{v: r})
	}
}

func (b *panicBox) tripped() bool { return b.p.Load() != nil }

func (b *panicBox) rethrow() {
	if pv := b.p.Load(); pv != nil {
		panic(pv.v)
	}
}

// runMorsels drains the morsel list with up to `workers` goroutines, each
// pulling the next morsel index from a shared cursor. fn runs once per
// morsel; callers keep per-morsel state and merge it in index order.
// Every worker re-checks the governor and the pool's panic flag before
// claiming a morsel, so on cancellation or a sibling's panic the pool
// drains: workers stop claiming, the caller joins all of them in wg.Wait,
// and only then does the first panic re-raise on the caller's goroutine.
// All exits — success, error, cancel, panic — pass through wg.Wait, so no
// error path leaks a worker goroutine.
func (m *Machine) runMorsels(ms []morsel, workers int, fn func(mi int)) {
	if len(ms) == 1 {
		fn(0)
		return
	}
	if workers > len(ms) {
		workers = len(ms)
	}
	var next atomic.Int64
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer box.capture()
			for {
				if box.tripped() || m.govTripped() {
					return
				}
				mi := int(next.Add(1)) - 1
				if mi >= len(ms) {
					return
				}
				fn(mi)
			}
		}()
	}
	wg.Wait()
	box.rethrow()
}

// projectedRows estimates how many driver rows the segment will produce,
// walking the ops the way the greedy reorderer bound them: an unbound scan
// multiplies the estimate by the relation size, a bound probe or filter
// leaves it alone (conservative: join fan-out is not modeled). The
// estimate decides whether fanning out is worth the goroutine overhead.
func projectedRows(ops []plan.PipeOp, rels []storage.Rel, have []bool, rows, cap int) int {
	est := rows
	for i, op := range ops {
		m, ok := op.(*plan.Match)
		if !ok || m.Negated || m.BoundMask != 0 || !have[i] || rels[i] == nil {
			continue
		}
		if n := rels[i].Len(); n > 1 {
			est *= n
		}
		if est >= cap {
			return cap
		}
	}
	return est
}

// materializeOp runs one streaming op over the whole row set, materializing
// its output: the driver-building phase of the morsel dispatch, used while
// the supplementary relation is still too small to split.
func (f *frame) materializeOp(op plan.PipeOp, rel storage.Rel, haveRel bool,
	rows [][]term.Value) ([][]term.Value, error) {
	var out [][]term.Value
	var sk term.Tuple
	for _, row := range rows {
		err := f.applyPipeOp(op, rel, haveRel, &sk, row, func() error {
			out = append(out, cloneRow(row))
			atomic.AddInt64(&f.m.Stats.TuplesMaterialized, 1)
			if len(out)&(govCheckRows-1) == 0 {
				return f.m.pollGovernor()
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runPipeParallel executes a segment's operators with morsel parallelism.
// A sequential prefix of ops first expands the supplementary relation until
// it is big enough to split (typically the leading relation scan — the
// driver table of the morsel model); decided indexes for the remaining ops
// are pre-built via the physical plan's hints (masks re-derived for the
// executed order) so workers never race an adaptive index build; then the
// remaining ops run per worker over disjoint morsels. cnt is the caller's
// per-op tuple counter array (len(ops)+1): the prefix accounts whole row
// sets, morsel workers merge their local counters with atomic adds.
func (f *frame) runPipeParallel(step *plan.PhysStep, ops []plan.PipeOp,
	rels []storage.Rel, have []bool, rows [][]term.Value, workers int,
	sprof *plan.StepProfile, cnt []int64) ([][]term.Value, error) {
	thr := f.m.fanOutThreshold()
	start := 0
	for start < len(ops) && len(rows) < thr {
		cnt[start] += int64(len(rows))
		out, err := f.materializeOp(ops[start], rels[start], have[start], rows)
		if err != nil {
			return nil, err
		}
		rows = out
		start++
		if len(rows) == 0 {
			return nil, nil
		}
	}
	if start == len(ops) {
		cnt[len(ops)] += int64(len(rows))
		return rows, nil
	}
	buildStart := time.Now()
	for _, h := range step.Hints {
		if h.Op >= start && have[h.Op] && rels[h.Op] != nil {
			rels[h.Op].PrepareRead(h.Mask, len(rows))
		}
	}
	if sprof != nil {
		sprof.BuildNs += time.Since(buildStart).Nanoseconds()
	}
	opBase := start
	ops, rels, have = ops[start:], rels[start:], have[start:]

	ms := morsels(len(rows), workers)
	results := make([][][]term.Value, len(ms))
	errs := make([]error, len(ms))
	var failed atomic.Bool
	f.m.runMorsels(ms, workers, func(mi int) {
		if failed.Load() {
			return
		}
		// Each morsel runs the batch kernels over its contiguous row range;
		// per-morsel output order is the sequential order, so the in-order
		// merge below stays byte-identical.
		local := make([]int64, len(ops)+1)
		out, err := f.runPipeBatch(ops, rels, have, rows[ms[mi].start:ms[mi].end], local)
		if err != nil {
			errs[mi] = err
			failed.Store(true)
		}
		results[mi] = out
		for i, c := range local {
			if c != 0 {
				atomic.AddInt64(&cnt[opBase+i], c)
			}
		}
	})
	total := 0
	for mi := range results {
		if errs[mi] != nil {
			return nil, errs[mi]
		}
		total += len(results[mi])
	}
	// A governor trip drains the pool mid-list, leaving skipped morsels'
	// results empty; surface the abort before anyone consumes the merge.
	if err := f.m.pollGovernor(); err != nil {
		return nil, err
	}
	merged := make([][]term.Value, 0, total)
	for _, r := range results {
		merged = append(merged, r...)
	}
	return merged, nil
}

// parMapRows applies fn to every row across the worker pool, concatenating
// per-morsel outputs in input order. fn receives the row index and an emit
// callback private to its morsel; it must only touch the given row and
// read-only shared state.
func (f *frame) parMapRows(rows [][]term.Value, workers int,
	fn func(ri int, row []term.Value, emit func([]term.Value)) error) ([][]term.Value, error) {
	ms := morsels(len(rows), workers)
	results := make([][][]term.Value, len(ms))
	errs := make([]error, len(ms))
	var failed atomic.Bool
	f.m.runMorsels(ms, workers, func(mi int) {
		if failed.Load() {
			return
		}
		var out [][]term.Value
		emit := func(row []term.Value) { out = append(out, row) }
		for ri := ms[mi].start; ri < ms[mi].end; ri++ {
			if err := fn(ri, rows[ri], emit); err != nil {
				errs[mi] = err
				failed.Store(true)
				break
			}
		}
		results[mi] = out
	})
	total := 0
	for mi := range results {
		if errs[mi] != nil {
			return nil, errs[mi]
		}
		total += len(results[mi])
	}
	// Skipped morsels from a governor drain must not merge as silently
	// missing rows (callers like applyCall rely on fn's side effects for
	// every row index).
	if err := f.m.pollGovernor(); err != nil {
		return nil, err
	}
	merged := make([][]term.Value, 0, total)
	for _, r := range results {
		merged = append(merged, r...)
	}
	return merged, nil
}

// dedupRowsParallel removes duplicate rows with hash-partitioned workers:
// one parallel pass hashes each row's live registers in place (no key
// bytes), then each worker owns a shard of the hash space and marks the
// later duplicates within it (shards touch disjoint entries of the dup
// vector) using a private open-addressing table that compares rows
// directly on hash collision, and a final in-order compaction keeps
// exactly the rows the sequential pass would keep.
func (f *frame) dedupRowsParallel(rows [][]term.Value, live []int, workers int) [][]term.Value {
	hashes := make([]uint64, len(rows))
	ms := morsels(len(rows), workers)
	f.m.runMorsels(ms, workers, func(mi int) {
		for i := ms[mi].start; i < ms[mi].end; i++ {
			hashes[i] = rowHashLive(rows[i], live)
		}
	})
	if f.m.govTripped() {
		// The pool may have drained mid-pass, leaving zero hashes; dedup
		// has no error path, so redo the pass sequentially — the governed
		// abort itself surfaces at the caller's next check.
		for i := range rows {
			hashes[i] = rowHashLive(rows[i], live)
		}
	}
	shards := workers
	dup := make([]bool, len(rows))
	var removed int64
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(shards)
	for p := 0; p < shards; p++ {
		go func(p int) {
			defer wg.Done()
			defer box.capture()
			var t hashTable
			t.reset(len(rows)/shards + 1)
			cand := 0
			eq := func(r int32) bool { return rowsEqualLive(rows[r], rows[cand], live) }
			var local int64
			for i, h := range hashes {
				if int(h%uint64(shards)) != p {
					continue
				}
				cand = i
				if _, found := t.findOrAdd(h, int32(i), eq); found {
					dup[i] = true
					local++
				}
			}
			atomic.AddInt64(&removed, local)
		}(p)
	}
	wg.Wait()
	box.rethrow()
	out := rows[:0]
	for i, row := range rows {
		if !dup[i] {
			out = append(out, row)
		}
	}
	atomic.AddInt64(&f.m.Stats.RowsDeduped, removed)
	return out
}
