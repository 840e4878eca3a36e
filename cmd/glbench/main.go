// Command glbench prints the experiment tables recorded in EXPERIMENTS.md:
// one table per quantitative claim in the paper's §5, §9 and §10, each
// comparing the system's mechanism against the baseline the paper argues
// it beats. It runs the internal/bench registry, the same cases and
// answer checks as `go test -bench Experiments`, and writes
// BENCH_<ID>.json for the experiments that keep a record.
//
// Usage:
//
//	glbench [-e E1,E5,...] [-reps n] [-data-dir dir]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"gluenail/internal/bench"
)

func main() {
	sel := flag.String("e", "", "comma-separated experiments to run (default all)")
	reps := flag.Int("reps", 3, "timed runs per case (the fastest is reported)")
	dataDir := flag.String("data-dir", "", "directory for the experiments' on-disk stores (default: the system temp dir; point at a real disk to measure its fsync cost)")
	flag.Parse()
	want := map[string]bool{}
	for _, id := range strings.Split(*sel, ",") {
		if id != "" {
			want[strings.ToUpper(id)] = true
		}
	}
	ran := 0
	for _, e := range bench.Experiments {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		if err := run(e, *reps, *dataDir); err != nil {
			fmt.Fprintf(os.Stderr, "glbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "glbench: no experiments matched; use -e E1..E18,F1,A1")
		os.Exit(1)
	}
}

// run measures and prints each of e's tables, then writes its record.
func run(e bench.Experiment, reps int, dataDir string) error {
	var res [][]bench.Result
	for _, t := range e.Tables {
		rs, err := t.Measure(reps, dataDir)
		if err != nil {
			return err
		}
		fmt.Printf("== %s\n   paper: %s\n", t.Title, t.Claim)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for _, row := range append([][]string{t.Header}, t.Rows(rs)...) {
			fmt.Fprintln(w, "  "+strings.Join(row, "\t"))
		}
		w.Flush()
		fmt.Println()
		res = append(res, rs)
	}
	if e.Record == nil {
		return nil
	}
	data, err := json.MarshalIndent(e.Record(res), "", "  ")
	if err != nil {
		return err
	}
	name := "BENCH_" + e.ID + ".json"
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("   wrote", name)
	return nil
}
