package gluenail_test

import (
	"errors"
	"testing"
	"time"

	"gluenail/internal/bench"
)

// BenchmarkExperiments runs the paper's evaluation (§5, §9, §10) from the
// internal/bench registry, every case as Experiments/<ID>/<case>.
// DESIGN.md §4 indexes the experiments, EXPERIMENTS.md records the
// results, and cmd/glbench prints the same registry as tables. After each
// table, the answers of the cases the -bench pattern selected must agree.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			for _, t := range e.Tables {
				rs := make([]bench.Result, len(t.Cases))
				for i, c := range t.Cases {
					b.Run(c.Name, func(b *testing.B) { rs[i] = runCase(b, c) })
				}
				if err := bench.Agree(rs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func runCase(b *testing.B, c bench.Case) bench.Result {
	run, err := c.Setup(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	r := bench.Result{Name: c.Name, Group: c.Group}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N && err == nil; i++ {
		err = run.Op(&r)
	}
	b.StopTimer()
	r.Ops, r.Time = b.N, b.Elapsed()/time.Duration(b.N)
	if err := errors.Join(err, run.Finish(&r)); err != nil {
		b.Fatal(err)
	}
	for name, v := range r.Metrics {
		b.ReportMetric(v, name)
	}
	return r
}
