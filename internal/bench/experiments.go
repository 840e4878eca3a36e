package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gluenail"
	"gluenail/internal/server"
	"gluenail/internal/storage"
	"gluenail/internal/storage/disk"
	"gluenail/internal/term"
)

// Experiments is the registry: every experiment of DESIGN.md §4 except
// E19 (clientbench/), in the order cmd/glbench prints them.
var Experiments = []Experiment{
	{ID: "E1", Tables: []Table{{
		Title:  "E1: compiler throughput (lex+parse+link+plan)",
		Claim:  `"compiles about two statements per Mips-second" — expect throughput ~flat in program size`,
		Header: []string{"statements", "compile ms", "stmts/sec"},
		Cases: sweep("stmts", []int{10, 50, 100, 500, 1000, 2000}, nil, func(_ string, n int, _ Mode) (*Run, error) {
			src := SyntheticProgram(n)
			return &Run{Op: func(*Result) error { return CompileSource(src) }}, nil
		}),
		Rows: perCase(func(r, _ Result) []string {
			return []string{r.Group, ms(r.Time), num(float64(arg(r)) / r.Time.Seconds())}
		}),
	}}},

	{ID: "E2", Tables: []Table{{
		Title: "E2: pipelined vs fully materialized execution (3-way join)",
		Claim: `materializing the supplementary relation "costs an extra load and store for each tuple" (§9)`,
		Header: []string{"rows/rel", "pipelined ms", "materialized ms", "mat/pipe",
			"tuples stored (pipe)", "tuples stored (mat)"},
		Cases: sweep("rows", []int{1000, 5000, 20000},
			[]Mode{{"pipelined", nil}, {"materialized", []gluenail.Option{gluenail.WithMaterializedExecution()}}},
			func(_ string, n int, m Mode) (*Run, error) {
				sys := NewJoinSystem(n, 4, m.Opts...)
				before := sys.Stats().Exec.TuplesMaterialized
				return &Run{Op: func(*Result) error { return RunJoin(sys) }, Done: func(r *Result) error {
					r.set("tuples-stored/op", float64((sys.Stats().Exec.TuplesMaterialized-before)/int64(r.Ops)))
					return nil
				}}, nil
			}),
		Rows: byGroup(2, func(g []Result) []string {
			return append(versus(g), num(g[0].Metrics["tuples-stored/op"]), num(g[1].Metrics["tuples-stored/op"]))
		}),
	}}},

	{ID: "E3", Tables: []Table{{
		Title:  "E3: duplicate elimination at pipeline breaks",
		Claim:  `"removing duplicates early has always been advantageous ... in the worst case [no duplicates] a loss" (§9)`,
		Header: []string{"dup factor", "dedup ms", "no-dedup ms", "no-dedup/dedup"},
		Cases: sweep("dup", []int{1, 2, 4, 16},
			[]Mode{{"dedup", nil}, {"no-dedup", []gluenail.Option{gluenail.WithoutDupElimination()}}},
			func(_ string, dup int, m Mode) (*Run, error) {
				sys := NewDupSystem(4000/dup, dup, m.Opts...)
				return &Run{Op: func(*Result) error { return RunDup(sys) }}, nil
			}),
		Rows: byGroup(2, versus),
	}}},

	{ID: "E4", Tables: []Table{{
		Title: "E4: adaptive run-time index creation (50k rows, repeated selections)",
		Claim: `build an index "after the cumulative cost of selection by scanning reaches the cost of creating the index" (§10)`,
		Header: []string{"queries", "adaptive rows scanned", "adaptive builds",
			"never-index rows scanned", "always-index rows scanned", "always builds"},
		Cases: sweep("queries", []int{1, 2, 4, 16, 64, 256},
			[]Mode{{Name: "adaptive"}, {Name: "never"}, {Name: "always"}},
			func(_ string, q int, m Mode) (*Run, error) {
				policy := map[string]storage.IndexPolicy{
					"adaptive": storage.IndexAdaptive, "never": storage.IndexNever, "always": storage.IndexAlways,
				}[m.Name]
				return &Run{Op: func(r *Result) error {
					res := RunSelections(policy, 50000, 500, q)
					r.set("rows-scanned", float64(res.RowsScanned))
					r.set("index-builds", float64(res.IndexBuilds))
					return nil
				}}, nil
			}),
		Rows: byGroup(3, func(g []Result) []string {
			return []string{g[0].Group,
				num(g[0].Metrics["rows-scanned"]), num(g[0].Metrics["index-builds"]),
				num(g[1].Metrics["rows-scanned"]),
				num(g[2].Metrics["rows-scanned"]), num(g[2].Metrics["index-builds"])}
		}),
	}}},

	{ID: "E5", Tables: []Table{{
		Title:  "E5: semi-naive (uniondiff) vs naive recursion (full closure of a chain)",
		Claim:  `the back end implements uniondiff "to support compiled recursive NAIL! queries" (§10)`,
		Header: []string{"chain length", "semi-naive ms", "naive ms", "naive/semi"},
		Cases: sweep("chain", []int{32, 64, 128},
			[]Mode{{"seminaive", nil}, {"naive", []gluenail.Option{gluenail.WithNaiveEvaluation()}}},
			func(_ string, n int, m Mode) (*Run, error) {
				return &Run{Op: query(NewTCSystem(ChainEdges(n), m.Opts...), "tc(X,Y)")}, nil
			}),
		Rows: byGroup(2, versus),
	}}},

	{ID: "E6", Tables: []Table{{
		Title:  "E6: HiLog predicate-variable dispatch (400 unrelated relations in store)",
		Claim:  `"much of the predicate selection analysis can be done at compile time" (§5); naive systems check every class at run time (§9)`,
		Header: []string{"sets", "narrowed ms", "runtime-deref ms", "runtime/narrowed"},
		Cases: sweep("sets", []int{8, 64, 256},
			[]Mode{{"narrowed", nil}, {"runtime", []gluenail.Option{gluenail.WithoutDispatchNarrowing()}}},
			func(_ string, sets int, m Mode) (*Run, error) {
				sys := NewDispatchSystem(sets, 4, 400, m.Opts...)
				return &Run{Op: func(*Result) error { return RunDispatch(sys) }}, nil
			}),
		Rows: byGroup(2, versus),
	}}},

	{ID: "E7", Tables: []Table{{
		Title:  "E7: set equality, name matching vs extensional comparison (64 pairs of 100-element sets)",
		Claim:  `"much of the time a simple string-string matching suffices to determine equality" (§5.1)`,
		Header: []string{"by-name ms", "set_eq ms", "set_eq/by-name"},
		Cases: sweep("pairs", []int{64}, []Mode{{Name: "by-name"}, {Name: "by-members"}},
			func(_ string, pairs int, m Mode) (*Run, error) {
				sys := NewSetEqSystem(pairs, 100)
				run := RunSetEqByName
				if m.Name == "by-members" {
					run = RunSetEqByMembers
				}
				return &Run{Op: func(*Result) error { return run(sys) }}, nil
			}),
		Rows: byGroup(2, func(g []Result) []string { return versus(g)[1:] }),
	}}},

	{ID: "E8", Tables: []Table{{
		Title: "E8: tailored main-memory back end vs DBMS-layered back end (tc_e temporaries)",
		Claim: `building on a relational DBMS is "a mistake ... the system wastes much of its time" protecting short-lived temporaries (§10)`,
		Header: []string{"proc calls", "tailored ms", "layered ms", "layered/tailored",
			"log bytes", "latch acquires"},
		Cases: sweep("calls", []int{10, 50},
			[]Mode{{"tailored", nil}, {"layered", []gluenail.Option{gluenail.WithLayeredBackend()}}},
			func(_ string, calls int, m Mode) (*Run, error) {
				sys := NewTemporariesSystem(40, m.Opts...)
				before := sys.Stats().Scratch
				return &Run{Op: func(*Result) error { return RunTemporaries(sys, calls) }, Done: func(r *Result) error {
					st := sys.Stats().Scratch
					r.set("log-bytes/op", float64((st.LogBytes-before.LogBytes)/int64(r.Ops)))
					r.set("latches/op", float64((st.LatchAcquires-before.LatchAcquires)/int64(r.Ops)))
					return nil
				}}, nil
			}),
		Rows: byGroup(2, func(g []Result) []string {
			return append(versus(g), num(g[1].Metrics["log-bytes/op"]), num(g[1].Metrics["latches/op"]))
		}),
	}}},

	{ID: "E9", Tables: []Table{{
		Title:  "E9: magic sets for bound queries (tc(1,X) on sparse random graphs)",
		Claim:  `bound calls evaluate only the relevant subset (magic templates, §8.2; set-at-a-time calls, §4)`,
		Header: []string{"nodes", "magic ms", "full+filter ms", "full/magic"},
		Cases: sweep("nodes", []int{200, 400, 800},
			[]Mode{{"magic", nil}, {"full", []gluenail.Option{gluenail.WithoutMagicSets()}}},
			func(_ string, n int, m Mode) (*Run, error) {
				// Sparse: most nodes are unreachable from node 1, which is
				// where magic wins.
				return &Run{Op: query(NewTCSystem(RandomEdges(n, n, 7), m.Opts...), "tc(1, X)")}, nil
			}),
		Rows: byGroup(2, versus),
	}}},

	{ID: "E10", Tables: []Table{{
		Title: fmt.Sprintf("E10: morsel-driven intra-segment parallelism (3-way join + filter, GOMAXPROCS=%d)",
			runtime.GOMAXPROCS(0)),
		Claim:  "partition segment input into morsels across a worker pool; results stay identical to sequential execution",
		Header: []string{"workers", "ms", "seq/this"},
		Cases: sweep("workers", workerSweep(), nil, func(_ string, w int, _ Mode) (*Run, error) {
			sys := NewParallelJoinSystem(20000, 4, gluenail.WithParallelism(w))
			return &Run{Op: func(*Result) error { return RunParJoin(sys) }}, nil
		}),
		Rows: perCase(func(r, first Result) []string {
			return []string{r.Group, ms(r.Time), ratio(r.Time, first.Time)}
		}),
	}}},

	{ID: "E11", Tables: []Table{{
		Title:  fmt.Sprintf("E11: durable EDB (write-ahead log), %d-iteration insert loop", durableIters),
		Claim:  "the tailored back end is strictly main-memory (§6); the WAL adds crash durability at statement boundaries without giving that model up",
		Header: []string{"mode", "ms", "stmts/sec", "off/this"},
		Cases: each([]Mode{
			{"wal=off", nil},
			{"fsync=none", []gluenail.Option{gluenail.WithFsync(gluenail.FsyncNever)}},
			{"fsync=batch", []gluenail.Option{gluenail.WithFsync(gluenail.FsyncBatch)}},
			{"fsync=always", []gluenail.Option{gluenail.WithFsync(gluenail.FsyncAlways)}},
		}, func(dir string, m Mode) (*Run, error) {
			// Each run starts from an empty store, so every statement
			// mutates and commits. The WAL-off baseline has no store.
			if m.Opts == nil {
				dir = ""
			} else {
				dir = filepath.Join(dir, "db")
			}
			return &Run{Op: func(r *Result) error {
				sys, err := NewDurableSystem(dir, m.Opts...)
				if err != nil {
					return err
				}
				if err := RunDurable(sys, durableIters); err != nil {
					sys.Close()
					return err
				}
				r.set("stmts", float64(sys.Stats().Exec.StmtsExecuted))
				return sys.Close()
			}}, nil
		}),
		Rows: perCase(func(r, first Result) []string {
			return []string{r.Name, ms(r.Time), num(r.Metrics["stmts"] / r.Time.Seconds()), ratio(first.Time, r.Time)}
		}),
	}}},

	{ID: "E12", Tables: []Table{{
		Title:  "E12: statistics-driven physical ordering (skewed join, identical results)",
		Claim:  `§3.1 makes subgoal ordering the central optimisation; static scores cannot tell a 4-row probe from an 80k-row scan — live statistics can`,
		Header: []string{"big rows", "textual ms", "greedy ms", "stats ms", "textual/stats"},
		// No constant arguments: the static greedy scores tie, so textual
		// and greedy both scan big, while live row counts steer the run-time
		// planner to start from the 4-row probe side.
		Cases: sweep("big", []int{5000, 20000, 80000}, []Mode{
			{"textual", []gluenail.Option{gluenail.WithoutReordering()}},
			{"greedy", []gluenail.Option{gluenail.WithGreedyOrdering()}},
			{"stats", nil},
		}, func(_ string, n int, m Mode) (*Run, error) {
			sys := NewSkewJoinSystem(n, 100, 4, m.Opts...)
			return &Run{Op: func(*Result) error { return RunSkewJoin(sys) }, Done: func(r *Result) (err error) {
				r.Answer, err = SkewJoinResult(sys)
				return err
			}}, nil
		}),
		Rows: byGroup(3, func(g []Result) []string {
			return []string{g[0].Group, ms(g[0].Time), ms(g[1].Time), ms(g[2].Time), ratio(g[2].Time, g[0].Time)}
		}),
	}}},

	{ID: "E13", Tables: []Table{{
		Title:  "E13: hash-first hot-path kernels (closure + group-by, identical results)",
		Claim:  `§10 reports evaluation cost dominated by low-level tuple operations; encoding a key string per row for dedup/group/probe was exactly such a cost`,
		Header: []string{"kernels", "time/op", "allocs/op", "bytes/op"},
		Steady: true,
		Cases:  each([]Mode{{"hash-first/seq", nil}, {"hash-first/4-workers", fourWorkers}}, tcGroupCase),
		Rows: perCase(func(r, _ Result) []string {
			return []string{r.Name, ms(r.Time), fmt.Sprint(r.Allocs), fmt.Sprint(r.Bytes)}
		}),
	}}, Record: func(res [][]Result) any {
		var modes []opRec
		for _, r := range res[0] {
			modes = append(modes, newOpRec(r))
		}
		return struct {
			Experiment string  `json:"experiment"`
			Workload   string  `json:"workload"`
			Modes      []opRec `json:"modes"`
		}{"E13 hash-first hot-path kernels", tcGroupWorkload, modes}
	}},

	{ID: "E14", Tables: []Table{{
		Title:  "E14: governor overhead on the E13 workload (armed, never fires)",
		Claim:  `a production governor is only free if its cancellation checks vanish against tuple work; target <2% overhead`,
		Header: []string{"mode", "time/op", "overhead vs ungoverned"},
		Steady: true,
		// The governed budget is far away on purpose: this prices the
		// per-instruction and per-8192-row cancellation checks every
		// governed query pays when nothing trips.
		Cases: each([]Mode{
			{"seq/ungoverned", nil},
			{"seq/governed", []gluenail.Option{governed}},
			{"4-workers/ungoverned", fourWorkers},
			{"4-workers/governed", append([]gluenail.Option{governed}, fourWorkers...)},
		}, tcGroupCase),
		Rows: func(rs []Result) [][]string {
			var out [][]string
			for i, r := range rs {
				over := "-"
				if i%2 == 1 {
					over = fmt.Sprintf("%+.2f%%", overheadPct(rs[i-1], r))
				}
				out = append(out, []string{r.Name, ms(r.Time), over})
			}
			return out
		},
	}, {
		Title:  "E14b: timeout abort latency on an infinite repeat/until loop",
		Claim:  `a deadline is only a guarantee if cooperative checks fire often enough; acceptance bound is abort within 2x the deadline at 1-8 workers`,
		Header: []string{"workers", "deadline", "aborted after", "within 2x"},
		Cases:  sweep("workers", []int{1, 2, 3, 4, 5, 6, 7, 8}, nil, spinCase),
		Rows: perCase(func(r, _ Result) []string {
			return []string{r.Group, ms(spinDeadline), ms(r.Time), fmt.Sprint(r.Time <= 2*spinDeadline)}
		}),
	}}, Record: func(res [][]Result) any {
		type rec struct {
			Name        string  `json:"name"`
			NsPerOp     int64   `json:"ns_per_op"`
			OverheadPct float64 `json:"overhead_pct_vs_ungoverned"`
		}
		type smokeRec struct {
			Workers    int     `json:"workers"`
			DeadlineMs float64 `json:"deadline_ms"`
			ElapsedMs  float64 `json:"elapsed_ms"`
			Within2x   bool    `json:"within_2x"`
		}
		var modes []rec
		for i, r := range res[0] {
			m := rec{Name: r.Name, NsPerOp: r.Time.Nanoseconds()}
			if i%2 == 1 {
				m.OverheadPct = overheadPct(res[0][i-1], r)
			}
			modes = append(modes, m)
		}
		var smoke []smokeRec
		for _, r := range res[1] {
			smoke = append(smoke, smokeRec{arg(r), float64(spinDeadline) / 1e6, float64(r.Time) / 1e6, r.Time <= 2*spinDeadline})
		}
		return struct {
			Experiment string     `json:"experiment"`
			Workload   string     `json:"workload"`
			TargetPct  float64    `json:"target_overhead_pct"`
			Modes      []rec      `json:"modes"`
			Smoke      []smokeRec `json:"timeout_smoke"`
		}{"E14 execution governor overhead + abort latency",
			fmt.Sprintf("%s; smoke: infinite cross-product repeat at %v deadline", tcGroupWorkload, spinDeadline),
			2, modes, smoke}
	}},

	{ID: "E15", Tables: []Table{{
		Title:  "E15: repeated-query hot path (plan cache on/off, identical results)",
		Claim:  `the paper's compiled-query model assumes a query is planned once and run many times; caching physical plans and batching the inner loops makes the repeated run pay only execution`,
		Header: []string{"mode", "time/op", "allocs/op", "bytes/op", "vs cache+batch"},
		Steady: true,
		Cases: each([]Mode{
			{"cache+batch", nil},
			{"batch-only", []gluenail.Option{gluenail.WithPlanCache(false)}},
		}, repeatedQueryCase),
		Rows: perCase(func(r, first Result) []string {
			return []string{r.Name, ms(r.Time), fmt.Sprint(r.Allocs), fmt.Sprint(r.Bytes), ratio(first.Time, r.Time)}
		}),
	}}, Record: func(res [][]Result) any {
		type rec struct {
			opRec
			CacheHits   int64 `json:"plan_cache_hits"`
			CacheMisses int64 `json:"plan_cache_misses"`
		}
		var modes []rec
		for _, r := range res[0] {
			modes = append(modes, rec{newOpRec(r), int64(r.Metrics["plan-cache-hits"]), int64(r.Metrics["plan-cache-misses"])})
		}
		return struct {
			Experiment string `json:"experiment"`
			Workload   string `json:"workload"`
			Modes      []rec  `json:"modes"`
		}{"E15 repeated-query hot path",
			fmt.Sprintf("bound 5-relation star query repeated on a stable EDB, %d customers x %d orders x %d items",
				rqCustomers, rqOrders, rqItems),
			modes}
	}},

	{ID: "E16", Tables: []Table{{
		Title: fmt.Sprintf("E16: multi-session server, snapshot-isolated reads under a live writer (GOMAXPROCS=%d)",
			runtime.GOMAXPROCS(0)),
		Claim:  `a deductive database serving many sessions must keep readers consistent without blocking them on updates; MVCC snapshots give every read transaction a byte-stable view while the writer commits freely`,
		Header: []string{"reader sessions", "read qps", "p50 ms", "p99 ms", "write qps", "violations"},
		Cases:  sweep("sessions", []int{1, 4, 16, 64}, nil, serverCase),
		Rows: perCase(func(r, _ Result) []string {
			m := r.Metrics
			return []string{r.Group, num(m["read-qps"]),
				fmt.Sprintf("%.3f", m["read-p50-us"]/1000), fmt.Sprintf("%.3f", m["read-p99-us"]/1000),
				num(m["write-qps"]), num(m["violations"])}
		}),
	}}, Record: func(res [][]Result) any {
		type rec struct {
			Sessions   int     `json:"reader_sessions"`
			ReadQPS    float64 `json:"read_qps"`
			WriteQPS   float64 `json:"write_qps"`
			P50Micros  int64   `json:"read_p50_us"`
			P99Micros  int64   `json:"read_p99_us"`
			Violations int64   `json:"isolation_violations"`
		}
		var scales []rec
		for _, r := range res[0] {
			m := r.Metrics
			scales = append(scales, rec{arg(r), m["read-qps"], m["write-qps"],
				int64(m["read-p50-us"]), int64(m["read-p99-us"]), int64(m["violations"])})
		}
		return struct {
			Experiment string `json:"experiment"`
			Workload   string `json:"workload"`
			Scales     []rec  `json:"scales"`
		}{"E16 multi-session server under mixed read/write load",
			fmt.Sprintf("recursive tc(1,X) over a %d-edge chain inside pinned read transactions, byte-compared per query, with one writer session churning a disjoint component; %s measurement window per scale",
				serverChain, serverWindow),
			scales}
	}},

	{ID: "E17", Tables: []Table{{
		Title:  fmt.Sprintf("E17: storage engines & out-of-core execution, tc over a %d-edge chain", engineChain),
		Claim:  "the tailored back end is main-memory (§6), but the same evaluator runs on disk-resident relations and spills scratch tables past a memory budget — identical answers, bounded slowdown",
		Header: []string{"engine", "ms", "tc rows", "vs mem", "runs", "rows spilled", "blocks read"},
		Cases: each([]Mode{
			{"mem", nil},
			{"disk", []gluenail.Option{gluenail.WithBackend("disk")}},
			{fmt.Sprintf("spill-budget=%d", engineChain/10),
				[]gluenail.Option{gluenail.WithBudget(gluenail.Budget{MaxRelRows: engineChain / 10})}},
		}, engineCase(engineChain)),
		Rows: perCase(func(r, first Result) []string {
			m := r.Metrics
			return append(engineRow(r, first), num(m["runs"]), num(m["rows-spilled"]), num(m["blocks-read"]))
		}),
	}}, Record: func(res [][]Result) any {
		type rec struct {
			engineRec
			RunsFlushed int64 `json:"runs_flushed"`
			RowsSpilled int64 `json:"rows_spilled"`
			BlocksRead  int64 `json:"blocks_read"`
		}
		var configs []rec
		for _, r := range res[0] {
			m := r.Metrics
			configs = append(configs, rec{newEngineRec(r, res[0][0]),
				int64(m["runs"]), int64(m["rows-spilled"]), int64(m["blocks-read"])})
		}
		return struct {
			Experiment string `json:"experiment"`
			Workload   string `json:"workload"`
			Configs    []rec  `json:"configs"`
		}{"E17 storage-engine throughput: mem vs disk vs out-of-core spill",
			fmt.Sprintf("tc(1,X) over a %d-edge chain; spill config caps scratch relations at %d in-memory rows (a tenth of the working set)",
				engineChain, engineChain/10),
			configs}
	}},

	{ID: "E18", Tables: []Table{{
		// Decoded blocks outsize a deliberately tiny block cache: every
		// iteration of the closure re-reads evicted blocks.
		Title:  fmt.Sprintf("E18a: query past the block cache, tc over a %d-edge chain", cacheChain),
		Claim:  "a cache an order of magnitude smaller than the working set forces re-reads every closure iteration; packed blocks and raw blocks answer identically",
		Header: []string{"engine", "ms", "tc rows", "vs mem", "blocks read", "cache hits"},
		Cases: each([]Mode{
			{"mem", nil},
			{"disk-packed", []gluenail.Option{gluenail.WithBackend("disk"), gluenail.WithBlockCache(8)}},
			{"disk-raw", []gluenail.Option{gluenail.WithBackend("disk"), gluenail.WithBlockCache(8),
				gluenail.WithBlockCompression(false)}},
		}, engineCase(cacheChain)),
		Rows: perCase(func(r, first Result) []string {
			return append(engineRow(r, first), num(r.Metrics["blocks-read"]), num(r.Metrics["cache-hits"]))
		}),
	}, {
		// A reopened multi-run store is probed for absent keys. Without
		// blooms every probe loads each run's chain index before it can
		// say no; with them the probe ends at an in-memory filter.
		Title:  fmt.Sprintf("E18b: cold-start membership misses, %d probes against a %d-row store", missProbes, missRows),
		Claim:  "per-run bloom filters answer miss probes from memory; the ablation pays a chain-index load per run before it can say no",
		Header: []string{"config", "µs/probe (incl. open)", "run reads", "bloom skips"},
		Cases:  each([]Mode{{Name: "bloom"}, {Name: "no-bloom"}}, missProbeCase),
		Rows: perCase(func(r, _ Result) []string {
			m := r.Metrics
			return []string{r.Name, fmt.Sprintf("%.1f", usPerProbe(r)), num(m["run-reads"]), num(m["bloom-skips"])}
		}),
	}, {
		// The same rows through per-statement WAL commits, versus one
		// statement large enough to take the direct bulk path.
		Title:  fmt.Sprintf("E18c: durable ingest of %d rows, fsync per statement", ingestRows),
		Claim:  "a batch past the bulk threshold builds fsynced runs directly and makes the manifest its durability point, skipping the WAL's journal-then-flush double write",
		Header: []string{"path", "ms", "bulk rows", "speedup"},
		Cases:  each([]Mode{{Name: "wal-1024"}, {Name: "bulk"}}, ingestCase),
		Rows: perCase(func(r, first Result) []string {
			return []string{r.Name, fmt.Sprintf("%.1f", millis(r.Time)), num(r.Metrics["bulk-rows"]),
				fmt.Sprintf("%.2f", millis(first.Time)/millis(r.Time))}
		}),
	}, {
		// RUN2 opens read a trailer and footer per run plus the manifest's
		// digests, no tuple bytes, so reopen scales with run count.
		Title:  "E18d: reopen time vs EDB size",
		Claim:  "footer-only run opens plus persisted manifest digests keep reopen sublinear in rows: per-row cost falls as the store grows",
		Header: []string{"rows", "runs", "open ms", "µs per 1k rows"},
		Cases:  sweep("reopen-rows", []int{40960, 163840, 655360}, nil, reopenCase),
		Rows: perCase(func(r, _ Result) []string {
			return []string{r.Group, num(r.Metrics["runs"]), fmt.Sprintf("%.3f", millis(r.Time)),
				fmt.Sprintf("%.2f", usPer1k(r))}
		}),
	}}, Record: func(res [][]Result) any {
		type qrec struct {
			engineRec
			BlocksRead int64 `json:"blocks_read"`
			CacheHits  int64 `json:"cache_hits"`
		}
		type mrec struct {
			Config      string  `json:"config"`
			MicrosProbe float64 `json:"us_per_probe"`
			RunReads    int64   `json:"run_reads"`
			BloomSkips  int64   `json:"bloom_skips"`
		}
		type irec struct {
			Config   string  `json:"config"`
			Millis   float64 `json:"ms"`
			BulkRows int64   `json:"bulk_rows"`
			Speedup  float64 `json:"vs_wal"`
		}
		type rrec struct {
			Rows        int     `json:"rows"`
			Runs        int     `json:"runs"`
			OpenMillis  float64 `json:"open_ms"`
			MicrosPer1k float64 `json:"us_per_1k_rows"`
		}
		var out struct {
			Experiment string  `json:"experiment"`
			CachePress []qrec  `json:"cache_pressure"`
			MissProbes []mrec  `json:"membership_misses"`
			MissRatio  float64 `json:"miss_read_ratio"`
			Ingest     []irec  `json:"ingest"`
			Reopen     []rrec  `json:"reopen"`
		}
		out.Experiment = "E18 fast disk engine: block cache pressure, bloom misses, bulk ingest, reopen scaling"
		for _, r := range res[0] {
			m := r.Metrics
			out.CachePress = append(out.CachePress, qrec{newEngineRec(r, res[0][0]),
				int64(m["blocks-read"]), int64(m["cache-hits"])})
		}
		for _, r := range res[1] {
			m := r.Metrics
			out.MissProbes = append(out.MissProbes, mrec{r.Name, usPerProbe(r), int64(m["run-reads"]), int64(m["bloom-skips"])})
		}
		out.MissRatio = res[1][1].Metrics["run-reads"] / max(res[1][0].Metrics["run-reads"], 1)
		for _, r := range res[2] {
			out.Ingest = append(out.Ingest, irec{r.Name, millis(r.Time), int64(r.Metrics["bulk-rows"]),
				millis(res[2][0].Time) / millis(r.Time)})
		}
		for _, r := range res[3] {
			out.Reopen = append(out.Reopen, rrec{arg(r), int(r.Metrics["runs"]), millis(r.Time), usPer1k(r)})
		}
		return out
	}},

	{ID: "F1", Tables: []Table{{
		Title:  "F1: Figure 1 micro-CAD select (scripted reject-then-accept interaction)",
		Claim:  "the paper's complete worked example runs as written",
		Header: []string{"elements", "select ms", "chosen"},
		Cases: sweep("elements", []int{1000, 10000}, nil, func(_ string, n int, _ Mode) (*Run, error) {
			cad := NewCadRun(n)
			return &Run{Op: func(r *Result) (err error) {
				r.Answer, err = cad.Select()
				return err
			}}, nil
		}),
		Rows: perCase(func(r, _ Result) []string { return []string{r.Group, ms(r.Time), r.Answer} }),
	}}},

	{ID: "A1", Tables: []Table{{
		Title:  "A1 (ablation): non-fixed subgoal reordering",
		Claim:  `"A Glue system is free to reorder the non-fixed subgoals" (§3.1): a selective constant-argument lookup moves ahead of an unselective scan`,
		Header: []string{"rows", "reordered ms", "source-order ms", "source/reordered"},
		Cases: sweep("rows", []int{500, 1000},
			[]Mode{{"reordered", nil}, {"source-order", []gluenail.Option{gluenail.WithoutReordering()}}},
			func(_ string, n int, m Mode) (*Run, error) {
				sys := NewReorderSystem(n, m.Opts...)
				return &Run{Op: func(*Result) error { return RunReorder(sys) }}, nil
			}),
		Rows: byGroup(2, versus),
	}}},
}

// query is an Op that evaluates goals on sys.
func query(sys *gluenail.System, goals string) func(*Result) error {
	return func(*Result) error {
		_, err := sys.Query(goals)
		return err
	}
}

// workerSweep is E10's worker counts: powers of two up to
// max(8, GOMAXPROCS).
func workerSweep() []int {
	ws := []int{1}
	for w := 2; w <= max(8, runtime.GOMAXPROCS(0)); w *= 2 {
		ws = append(ws, w)
	}
	return ws
}

// durableIters is the length of E11's insert loop.
const durableIters = 1500

// ---------- E13/E14: closure + group-by under kernels and the governor ----------

const tcGroupNodes, tcGroupEdges = 120, 240

var tcGroupWorkload = fmt.Sprintf("transitive closure + group_by count, %d string nodes, %d edges",
	tcGroupNodes, tcGroupEdges)

var (
	fourWorkers = []gluenail.Option{gluenail.WithParallelism(4), gluenail.WithParallelThreshold(64)}
	governed    = gluenail.WithBudget(gluenail.Budget{Timeout: time.Hour, MaxTuples: 1 << 40})
)

// tcGroupCase runs the closure + group-by workload; its answer is the
// reach relation, so every mode must derive it byte for byte.
func tcGroupCase(_ string, m Mode) (*Run, error) {
	sys := NewTCGroupSystem(tcGroupNodes, tcGroupEdges, 7, m.Opts...)
	return &Run{Op: func(*Result) error { return RunTCGroup(sys) }, Done: func(r *Result) (err error) {
		r.Answer, err = TCGroupResult(sys)
		return err
	}}, nil
}

// opRec is the BENCH_*.json record of one steady-state case.
type opRec struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

func newOpRec(r Result) opRec { return opRec{r.Name, r.Time.Nanoseconds(), r.Allocs, r.Bytes} }

// overheadPct is governed's time over ungoverned's, as a percentage.
func overheadPct(ungoverned, governed Result) float64 {
	return 100 * (float64(governed.Time) - float64(ungoverned.Time)) / float64(ungoverned.Time)
}

// spinSrc is an infinite repeat/until whose body re-derives a cross
// product, wide enough to fan out over morsel workers.
const spinSrc = `
edb e(X), big(X,Y);

proc spin(:)
  repeat
    big(X,Y) := e(X) & e(Y).
  until empty(e(_));
  return(:) := e(_).
end
`

const spinDeadline = 150 * time.Millisecond

// spinCase times how long a runaway loop survives its deadline at w
// workers. A run that does not fail with ErrTimeout within twice the
// deadline fails the experiment.
func spinCase(_ string, w int, _ Mode) (*Run, error) {
	sys := gluenail.New(
		gluenail.WithBudget(gluenail.Budget{Timeout: spinDeadline, MaxLoopIters: -1}),
		gluenail.WithParallelism(w),
		gluenail.WithParallelThreshold(1))
	if err := sys.Load(spinSrc); err != nil {
		return nil, err
	}
	var es [][]any
	for i := 0; i < 64; i++ {
		es = append(es, []any{i})
	}
	if err := sys.Assert("e", es...); err != nil {
		return nil, err
	}
	return &Run{Op: func(*Result) error {
		start := time.Now()
		_, err := sys.Call("main", "spin", []any{})
		if !errors.Is(err, gluenail.ErrTimeout) {
			return fmt.Errorf("want ErrTimeout, got %v", err)
		}
		if d := time.Since(start); d > 2*spinDeadline {
			return fmt.Errorf("aborted after %v, past twice the %v deadline", d, spinDeadline)
		}
		return nil
	}}, nil
}

// ---------- E15: repeated bound query ----------

const rqCustomers, rqOrders, rqItems = 512, 8, 6

// repeatedQueryCase warms the query so the steady state, not first-run
// planning, is timed. The cached mode must then serve every run from the
// plan cache.
func repeatedQueryCase(_ string, m Mode) (*Run, error) {
	sys := NewRepeatedQuerySystem(rqCustomers, rqOrders, rqItems,
		append([]gluenail.Option{gluenail.WithParallelism(1)}, m.Opts...)...)
	var rows int
	op := func(*Result) (err error) {
		rows, err = RunRepeatedQuery(sys)
		return err
	}
	for i := 0; i < 3; i++ {
		if err := op(nil); err != nil {
			return nil, err
		}
	}
	before := sys.PlanCacheStats()
	return &Run{Op: op, Done: func(r *Result) error {
		after := sys.PlanCacheStats()
		r.Answer = fmt.Sprint(rows)
		r.set("plan-cache-hits", float64(after.Hits))
		r.set("plan-cache-misses", float64(after.Misses))
		if rows == 0 {
			return errors.New("no rows")
		}
		if m.Name == "cache+batch" && after.Misses != before.Misses {
			return fmt.Errorf("missed the warm plan cache %d times", after.Misses-before.Misses)
		}
		return nil
	}}, nil
}

// ---------- E16: multi-session server ----------

const (
	serverChain      = 64     // readers' tc(1,X) yields serverChain rows
	serverWriterBase = 100000 // the writer's component, disjoint from the readers'
	serverWindow     = 400 * time.Millisecond
)

// serverCase serves a system over loopback. One op is one measurement
// window: n reader sessions, each inside a read transaction, byte-compare
// every answer of a recursive query against their first, while one
// writer session churns a disjoint region of the EDB. Any difference is
// an isolation violation and fails the experiment.
func serverCase(_ string, n int, _ Mode) (*Run, error) {
	srv, err := server.New(server.Config{System: NewTCSystem(ChainEdges(serverChain + 1))})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(lis)
	addr := lis.Addr().String()

	var reads, writes, violations atomic.Int64
	var mu sync.Mutex
	var lats []time.Duration
	var elapsed time.Duration
	reader := func(until time.Time) error {
		c, err := server.Dial(addr, 5*time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		if _, err := c.Begin(); err != nil {
			return err
		}
		base, err := c.Query("tc(1,X)")
		if err != nil {
			return err
		}
		want := fmt.Sprint(base.Rows)
		var mine []time.Duration
		for time.Now().Before(until) {
			t0 := time.Now()
			res, err := c.Query("tc(1,X)")
			if err != nil {
				return err
			}
			mine = append(mine, time.Since(t0))
			reads.Add(1)
			if fmt.Sprint(res.Rows) != want {
				violations.Add(1)
			}
		}
		mu.Lock()
		lats = append(lats, mine...)
		mu.Unlock()
		return c.End()
	}
	// The writer asserts fresh edges and retracts each batch of 256, so the
	// EDB stays bounded.
	writer := func(until time.Time) error {
		c, err := server.Dial(addr, 5*time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		for i := int64(0); time.Now().Before(until); i++ {
			k := serverWriterBase + i%256
			if err := c.Assert("edge", []any{k, k + 1}); err != nil {
				return err
			}
			writes.Add(1)
			for j := int64(0); i%256 == 255 && j < 256; j++ {
				if err := c.Retract("edge", []any{serverWriterBase + j, serverWriterBase + j + 1}); err != nil {
					return err
				}
				writes.Add(1)
			}
		}
		return nil
	}
	return &Run{Op: func(*Result) error {
		start := time.Now()
		until := start.Add(serverWindow)
		errs := make(chan error, n+1)
		for i := 0; i < n; i++ {
			go func() { errs <- reader(until) }()
		}
		go func() { errs <- writer(until) }()
		var err error
		for i := 0; i <= n; i++ {
			err = errors.Join(err, <-errs)
		}
		elapsed += time.Since(start)
		if v := violations.Load(); v > 0 {
			err = errors.Join(err, fmt.Errorf("%d isolation violations", v))
		}
		return err
	}, Done: func(r *Result) error {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pct := func(p float64) float64 {
			if len(lats) == 0 {
				return 0
			}
			return float64(lats[int(p*float64(len(lats)-1))].Microseconds())
		}
		r.set("read-qps", float64(reads.Load())/elapsed.Seconds())
		r.set("write-qps", float64(writes.Load())/elapsed.Seconds())
		r.set("read-p50-us", pct(0.50))
		r.set("read-p99-us", pct(0.99))
		r.set("violations", float64(violations.Load()))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}}, nil
}

// ---------- E17/E18: storage engines and the disk engine ----------

const (
	engineChain = 2000 // E17
	cacheChain  = 4000 // E18a
	missRows    = 100000
	missProbes  = 5
	ingestRows  = 327680
)

// engineCase times tc(1,X) over an n-edge chain on a system built fresh
// each run. A "disk*" mode keeps its store in the case directory and is
// checkpointed first, so the query reads runs through the block cache
// rather than an all-resident memtable; a "spill*" mode spills there.
// Every mode must return the same number of rows.
func engineCase(n int) func(dir string, m Mode) (*Run, error) {
	edges := ChainEdges(n + 1)
	return func(dir string, m Mode) (*Run, error) {
		opts := append([]gluenail.Option{}, m.Opts...)
		onDisk := strings.HasPrefix(m.Name, "disk")
		switch {
		case onDisk:
			opts = append(opts, gluenail.WithDurability(dir))
		case strings.HasPrefix(m.Name, "spill"):
			opts = append(opts, gluenail.WithSpill(dir, 0))
		}
		return &Run{Op: func(r *Result) error {
			sys := NewTCSystem(edges, opts...)
			if onDisk {
				if err := sys.Checkpoint(); err != nil {
					sys.Close()
					return err
				}
			}
			res, err := sys.Query("tc(1,X)")
			if err != nil {
				sys.Close()
				return err
			}
			st := sys.Stats()
			r.Answer = fmt.Sprint(len(res.Rows))
			r.set("rows", float64(len(res.Rows)))
			r.set("runs", float64(st.EDB.RunsFlushed+st.Scratch.RunsFlushed))
			r.set("rows-spilled", float64(st.EDB.RowsSpilled+st.Scratch.RowsSpilled))
			r.set("blocks-read", float64(st.EDB.BlocksRead+st.Scratch.BlocksRead))
			r.set("cache-hits", float64(st.EDB.CacheHits+st.Scratch.CacheHits))
			return sys.Close()
		}}, nil
	}
}

// engineRec is the head of an E17/E18a record, and engineRow the head of
// its table row: one engine's closure against the mem engine's (first).
type engineRec struct {
	Config   string  `json:"config"`
	Millis   float64 `json:"ms"`
	Rows     int     `json:"rows"`
	MemRatio float64 `json:"vs_mem"`
}

func newEngineRec(r, first Result) engineRec {
	return engineRec{r.Name, millis(r.Time), int(r.Metrics["rows"]), millis(r.Time) / millis(first.Time)}
}

func engineRow(r, first Result) []string {
	e := newEngineRec(r, first)
	return []string{e.Config, fmt.Sprintf("%.3f", e.Millis), fmt.Sprint(e.Rows), fmt.Sprintf("%.2f", e.MemRatio)}
}

// fillEdges writes an n-row edge relation into a fresh disk store at dir,
// flushes it into runs and returns the number of runs written.
func fillEdges(dir string, n int, opts disk.Options) (int64, error) {
	st, err := disk.Open(dir, opts)
	if err != nil {
		return 0, err
	}
	rel := st.Ensure(term.Intern("edge"), 2)
	for i := 0; i < n; i++ {
		rel.Insert(term.Tuple{term.NewInt(int64(i)), term.NewInt(int64(i + 1))})
	}
	if err := st.FlushBase(); err != nil {
		st.Close()
		return 0, err
	}
	runs := st.Stats().RunsFlushed
	return runs, st.Close()
}

// missProbeCase times a reopen of a multi-run store plus missProbes
// probes for absent keys, with blooms or without.
func missProbeCase(dir string, m Mode) (*Run, error) {
	if _, err := fillEdges(dir, missRows, disk.Options{FlushRows: 4096, NoCompactor: true}); err != nil {
		return nil, err
	}
	return &Run{Op: func(r *Result) error {
		s, err := disk.Open(dir, disk.Options{NoCompactor: true, NoBloom: m.Name == "no-bloom"})
		if err != nil {
			return err
		}
		rel, ok := s.Get(term.Intern("edge"), 2)
		if !ok {
			s.Close()
			return errors.New("probe relation missing")
		}
		for i := 0; i < missProbes; i++ {
			if rel.Contains(term.Tuple{term.NewInt(int64(missRows + 7*i + 1)), term.NewInt(0)}) {
				s.Close()
				return errors.New("absent key reported present")
			}
		}
		st := s.Stats()
		r.set("run-reads", float64(st.RunIndexLoads+st.BlocksRead))
		r.set("bloom-skips", float64(st.BloomSkips))
		return s.Close()
	}}, nil
}

// ingestCase times a durable ingest of ingestRows rows into a fresh disk
// store with an fsync per statement: 1024-row statements through the WAL,
// or one statement that must take the bulk path. Building the rows is not
// timed.
func ingestCase(dir string, m Mode) (*Run, error) {
	bulk := m.Name == "bulk"
	chunk := 1024
	if bulk {
		chunk = ingestRows
	}
	var chunks [][][]any
	for lo := 0; lo < ingestRows; lo += chunk {
		rows := make([][]any, chunk)
		for j := range rows {
			rows[j] = []any{lo + j, lo + j + 1}
		}
		chunks = append(chunks, rows)
	}
	return &Run{Op: func(r *Result) error {
		db, err := os.MkdirTemp(dir, "ingest-")
		if err != nil {
			return err
		}
		sys, err := gluenail.Open(db, gluenail.WithBackend("disk"), gluenail.WithFsync(gluenail.FsyncAlways))
		if err != nil {
			return err
		}
		err = ingest(sys, chunks)
		bulkRows := sys.Stats().EDB.BulkRows
		r.set("bulk-rows", float64(bulkRows))
		if err := errors.Join(err, sys.Close()); err != nil {
			return err
		}
		if bulk != (bulkRows > 0) {
			return fmt.Errorf("%d of %d rows took the bulk path", bulkRows, ingestRows)
		}
		return nil
	}}, nil
}

// ingest asserts each chunk as one statement, then checkpoints.
func ingest(sys *gluenail.System, chunks [][][]any) error {
	if err := sys.Load(`edb edge(X,Y);`); err != nil {
		return err
	}
	for _, rows := range chunks {
		if err := sys.Assert("edge", rows...); err != nil {
			return err
		}
	}
	return sys.Checkpoint()
}

// reopenCase times reopening a store of n rows, written with the default
// flush size and no compactor, so the runs flushed are the live runs.
func reopenCase(dir string, n int, _ Mode) (*Run, error) {
	runs, err := fillEdges(dir, n, disk.Options{NoCompactor: true})
	if err != nil {
		return nil, err
	}
	return &Run{Op: func(r *Result) error {
		s, err := disk.Open(dir, disk.Options{NoCompactor: true})
		if err != nil {
			return err
		}
		if rel, ok := s.Get(term.Intern("edge"), 2); !ok || rel.Len() != n {
			s.Close()
			return fmt.Errorf("reopen of a %d-row store lost rows", n)
		}
		r.set("runs", float64(runs))
		return s.Close()
	}}, nil
}

// usPerProbe is a miss probe's share of the reopen-and-probe time.
func usPerProbe(r Result) float64 { return float64(r.Time.Nanoseconds()) / 1000 / missProbes }

// usPer1k is a reopen's time per thousand rows.
func usPer1k(r Result) float64 {
	return float64(r.Time.Nanoseconds()) / 1000 / (float64(arg(r)) / 1000)
}
