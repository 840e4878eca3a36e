package gluenail

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Constant lifting: a query's top-level constant arguments become bound
// parameters of one compiled procedure per query shape. These tests bound
// what distinct constants cost (procedures, heap) and check that a lifted
// query answers byte-identically to the same constant written into a rule
// body and queried through its IDB predicate — an oracle no knob selects.

const liftProgram = `
edb edge(X,Y), kv(K,V), val(V,W), tag(K,T), attends(N,C);
tc(X,Y) :- edge(X,Y).
tc(X,Z) :- tc(X,Y) & edge(Y,Z).
students(C)(N) :- attends(N, C).
`

// liftCase is one query shape: query(c) is the ad-hoc text for constant
// c, rule(c) the same conjunction as the body of oracle rule head(c).
type liftCase struct {
	name   string
	consts []string
	query  func(c string) string
	vars   string // the answer variables, the oracle rule's head arguments
}

var liftCases = []liftCase{
	{"tc", []string{"0", "3", "17", "49"},
		func(c string) string { return fmt.Sprintf("tc(%s, X)", c) }, "X"},
	{"join", []string{"0", "5", "12", "39"},
		func(c string) string { return fmt.Sprintf("kv(%s, V) & val(V, W)", c) }, "V,W"},
	{"bound_probe", []string{"5", "6", "13"},
		func(c string) string { return fmt.Sprintf("kv(%s, 5) & val(5, W)", c) }, "W"},
	{"negated", []string{"red", "'Blue Sky'", "green"},
		func(c string) string { return fmt.Sprintf("kv(K, V) & !tag(K, %s)", c) }, "K,V"},
	{"string", []string{"red", "'Blue Sky'", "green"},
		func(c string) string { return fmt.Sprintf("tag(K, %s) & kv(K, V)", c) }, "K,V"},
	{"hilog_name", []string{"db", "os", "ai"},
		func(c string) string { return fmt.Sprintf("students(%s)(N) & attends(N, db)", c) }, "N"},
	{"hilog_value", []string{"ann", "bob", "eve"},
		func(c string) string { return fmt.Sprintf("students(db)(%s) & attends(%s, C)", c, c) }, "C"},
}

// oracleName names the rule standing for case lc at constant index i.
func oracleName(lc liftCase, i int) string { return fmt.Sprintf("o_%s_%d", lc.name, i) }

// liftOracleProgram adds one NAIL! rule per case and constant, with the
// constant in its body.
func liftOracleProgram() string {
	var sb strings.Builder
	sb.WriteString(liftProgram)
	for _, lc := range liftCases {
		for i, c := range lc.consts {
			fmt.Fprintf(&sb, "%s(%s) :- %s.\n", oracleName(lc, i), lc.vars, lc.query(c))
		}
	}
	return sb.String()
}

func loadLiftFacts(t *testing.T, sys *System) {
	t.Helper()
	var edges, kv, val, tag [][]any
	for i := 0; i < 50; i++ {
		edges = append(edges, []any{i, (i*7 + 1) % 50}, []any{i, (i*3 + 2) % 50})
	}
	for k := 0; k < 40; k++ {
		kv = append(kv, []any{k, k % 13})
		switch {
		case k%3 == 0:
			tag = append(tag, []any{k, "red"})
		case k%5 == 0:
			tag = append(tag, []any{k, "Blue Sky"})
		}
	}
	for v := 0; v < 13; v++ {
		val = append(val, []any{v, v * 100})
	}
	attends := [][]any{{"ann", "db"}, {"bob", "db"}, {"cal", "db"}, {"ann", "os"}, {"dan", "os"}, {"eve", "ai"}}
	for rel, rows := range map[string][][]any{"edge": edges, "kv": kv, "val": val, "tag": tag, "attends": attends} {
		if err := sys.Assert(rel, rows...); err != nil {
			t.Fatal(err)
		}
	}
}

func resultKey(res *Result) string { return fmt.Sprint(res.Vars, res.Rows) }

// TestConstantLiftingKeepsAnswers runs every case on the mem and disk
// engines at 1 and 8 workers, live and through a snapshot: each lifted
// query must equal its oracle rule's answers byte for byte, distinct
// constants must share one procedure, and a HiLog predicate-name
// constant must not.
func TestConstantLiftingKeepsAnswers(t *testing.T) {
	for _, backend := range []string{"mem", "disk"} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/w%d", backend, workers), func(t *testing.T) {
				// A durable system, so the checkpoint moves the disk
				// engine's rows into runs that snapshot lookups probe.
				sys, err := Open(t.TempDir(), WithBackend(backend), WithParallelism(workers), WithParallelThreshold(2))
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				if err := sys.Load(liftOracleProgram()); err != nil {
					t.Fatal(err)
				}
				loadLiftFacts(t, sys)
				if err := sys.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				snap, err := sys.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer snap.Close()
				oracles := map[string]string{}
				for _, lc := range liftCases {
					for i := range lc.consts {
						res, err := sys.Query(fmt.Sprintf("%s(%s)", oracleName(lc, i), lc.vars))
						if err != nil {
							t.Fatal(err)
						}
						oracles[oracleName(lc, i)] = resultKey(res)
					}
				}
				for _, lc := range liftCases {
					before := queryProcs(t, sys)
					for i, c := range lc.consts {
						q := lc.query(c)
						want := oracles[oracleName(lc, i)]
						live, err := sys.Query(q)
						if err != nil {
							t.Fatalf("%s: %v", q, err)
						}
						if got := resultKey(live); got != want {
							t.Fatalf("%s: lifted %s, oracle %s", q, got, want)
						}
						snapped, err := snap.Query(q)
						if err != nil {
							t.Fatalf("%s on a snapshot: %v", q, err)
						}
						if got := resultKey(snapped); got != want {
							t.Fatalf("%s on a snapshot: lifted %s, oracle %s", q, got, want)
						}
					}
					// One shape per case; a HiLog set name is part of
					// the shape, so each name compiles its own.
					want := 1
					if lc.name == "hilog_name" {
						want = len(lc.consts)
					}
					if grew := queryProcs(t, sys) - before; grew != want {
						t.Errorf("%s: %d constants compiled %d query procedures, want %d",
							lc.name, len(lc.consts), grew, want)
					}
				}
			})
		}
	}
}

// TestConstantLiftingBoundsCompilation compiles 8,000 distinct tc(N,X)
// texts: the program must grow by at most the one shared query procedure
// and its magic-rewritten tc@bf, and the heap by under 1 MiB. Prepared
// handles keep their constants across a recompilation.
func TestConstantLiftingBoundsCompilation(t *testing.T) {
	sys := New()
	if err := sys.Load(chainProgram); err != nil {
		t.Fatal(err)
	}
	if err := sys.Assert("edge", chainFacts(64)...); err != nil {
		t.Fatal(err)
	}
	first, err := sys.Prepare("tc(60, X)")
	if err != nil {
		t.Fatal(err)
	}
	procs := procCount(t, sys)
	heap := liveHeap()
	for n := 0; n < 8000; n++ {
		res, err := sys.Query(fmt.Sprintf("tc(%d, X)", n))
		if err != nil {
			t.Fatal(err)
		}
		if want := max(0, 64-n); len(res.Rows) != want {
			t.Fatalf("tc(%d, X): %d rows, want %d", n, len(res.Rows), want)
		}
	}
	if grew := procCount(t, sys) - procs; grew > 2 {
		t.Fatalf("8,000 distinct tc(N,X) texts grew the program by %d procedures, want <= 2", grew)
	}
	if grew := liveHeap() - heap; grew >= 1<<20 {
		t.Fatalf("8,000 distinct tc(N,X) texts grew the heap by %d bytes, want < 1 MiB", grew)
	}
	// A Load recompiles the program; the handle re-prepares with its own
	// constant, not another text's.
	if err := sys.Load("edb other(X);"); err != nil {
		t.Fatal(err)
	}
	res, err := first.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != "[[61] [62] [63] [64]]" {
		t.Fatalf("re-prepared tc(60, X) answered %s", got)
	}
}

func procCount(t *testing.T, sys *System) int {
	t.Helper()
	ids, err := sys.Procs()
	if err != nil {
		t.Fatal(err)
	}
	return len(ids)
}

// queryProcs counts the compiled ad-hoc query procedures.
func queryProcs(t *testing.T, sys *System) int {
	t.Helper()
	ids, err := sys.Procs()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, id := range ids {
		if strings.Contains(id, "$query") {
			n++
		}
	}
	return n
}

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
