package bench

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"
	"time"
)

// Experiment is one claim of the paper's evaluation as both front ends run
// it: one or more tables and, for the experiments CI tracks, the
// BENCH_<ID>.json record.
type Experiment struct {
	ID     string
	Tables []Table
	// Record, when set, builds the BENCH_<ID>.json document from each
	// table's results, in table order.
	Record func(res [][]Result) any
}

// Table is one comparison: the cases it times and how it prints.
type Table struct {
	Title, Claim string
	Header       []string
	Cases        []Case
	// Steady marks a table whose figure is the steady-state cost of one op:
	// Measure times its cases with testing.Benchmark (auto-scaled
	// iteration count, allocations counted) instead of best of reps.
	Steady bool
	// Rows renders the results, in case order, under Header.
	Rows func(rs []Result) [][]string
}

// Case is one configuration of a table; go test names it
// Experiments/<ID>/<Name>.
type Case struct {
	Name string
	// Group: the cases of one group that record an Answer must agree on it.
	Group string
	// Setup builds the fixture, untimed, in dir: a fresh directory the case
	// owns.
	Setup func(dir string) (*Run, error)
}

// Run is a built case.
type Run struct {
	// Op is one timed unit of work; an error fails the experiment. It may
	// record the answer and counters of the run it made into r (the last
	// run's stand).
	Op func(r *Result) error
	// Done, when set, runs once after timing, whether or not Op failed. It
	// records what the timed runs could not without distorting them,
	// checks the case's own invariants, and releases the fixture.
	Done func(r *Result) error
}

// Finish runs Done, if set.
func (run *Run) Finish(r *Result) error {
	if run.Done == nil {
		return nil
	}
	return run.Done(r)
}

// Result is one case's measurement.
type Result struct {
	Name, Group string
	// Ops counts the timed runs of Op. Time is the cost of one: the fastest
	// of reps, or the mean under testing.B and in steady tables.
	Ops  int
	Time time.Duration
	// Allocs and Bytes per op are filled by Measure in steady tables; go
	// test reports its own.
	Allocs, Bytes int64
	Answer        string
	// Metrics are the counters Op and Done record. go test reports each as
	// a custom metric, so names carry no spaces.
	Metrics map[string]float64
}

func (r *Result) set(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// Measure runs the table's cases outside go test, each in a fresh
// directory under parent (the system temp dir when empty), and checks
// that every group agrees. Each case is timed reps times unless the table
// is steady.
func (t Table) Measure(reps int, parent string) ([]Result, error) {
	if parent != "" {
		if err := os.MkdirAll(parent, 0o755); err != nil {
			return nil, err
		}
	}
	var rs []Result
	for _, c := range t.Cases {
		r, err := c.measure(max(reps, 1), parent, t.Steady)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
		rs = append(rs, r)
	}
	return rs, Agree(rs)
}

func (c Case) measure(reps int, parent string, steady bool) (Result, error) {
	r := Result{Name: c.Name, Group: c.Group}
	dir, err := os.MkdirTemp(parent, "glbench-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	run, err := c.Setup(dir)
	if err != nil {
		return r, err
	}
	if steady {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N && err == nil; i++ {
				err = run.Op(&r)
			}
		})
		r.Ops, r.Time = res.N, time.Duration(res.NsPerOp())
		r.Allocs, r.Bytes = res.AllocsPerOp(), res.AllocedBytesPerOp()
	} else {
		r.Ops, r.Time = reps, time.Duration(math.MaxInt64)
		for i := 0; i < reps && err == nil; i++ {
			start := time.Now()
			err = run.Op(&r)
			r.Time = min(r.Time, time.Since(start))
		}
	}
	return r, errors.Join(err, run.Finish(&r))
}

// Agree checks that the cases of each group that recorded an answer agree
// on it. Results of cases that did not run carry no answer.
func Agree(rs []Result) error {
	first := map[string]Result{}
	for _, r := range rs {
		if r.Answer == "" {
			continue
		}
		if f, ok := first[r.Group]; !ok {
			first[r.Group] = r
		} else if r.Answer != f.Answer {
			return fmt.Errorf("%s answered differently from %s", r.Name, f.Name)
		}
	}
	return nil
}

// sweep crosses a parameter with modes: one case per (arg, mode), named
// <param>=<arg>/<mode> (<param>=<arg> when modes is nil) and grouped by
// arg, so one group is one table row.
func sweep(param string, args []int, modes []Mode, setup func(dir string, arg int, m Mode) (*Run, error)) []Case {
	if modes == nil {
		modes = []Mode{{}}
	}
	var cs []Case
	for _, a := range args {
		for _, m := range modes {
			name := fmt.Sprintf("%s=%d", param, a)
			if m.Name != "" {
				name += "/" + m.Name
			}
			cs = append(cs, Case{Name: name, Group: strconv.Itoa(a),
				Setup: func(dir string) (*Run, error) { return setup(dir, a, m) }})
		}
	}
	return cs
}

// each is one case per mode, all in one group.
func each(modes []Mode, setup func(dir string, m Mode) (*Run, error)) []Case {
	var cs []Case
	for _, m := range modes {
		cs = append(cs, Case{Name: m.Name, Setup: func(dir string) (*Run, error) { return setup(dir, m) }})
	}
	return cs
}

// byGroup renders one row per run of k consecutive results: a sweep's k
// modes at one arg.
func byGroup(k int, row func(g []Result) []string) func([]Result) [][]string {
	return func(rs []Result) [][]string {
		var out [][]string
		for i := 0; i+k <= len(rs); i += k {
			out = append(out, row(rs[i:i+k]))
		}
		return out
	}
}

// perCase renders one row per result; first is the table's first result.
func perCase(row func(r, first Result) []string) func([]Result) [][]string {
	return func(rs []Result) [][]string {
		var out [][]string
		for _, r := range rs {
			out = append(out, row(r, rs[0]))
		}
		return out
	}
}

// versus is the row of a two-mode sweep: the arg, both times, and the
// second over the first.
func versus(g []Result) []string {
	return []string{g[0].Group, ms(g[0].Time), ms(g[1].Time), ratio(g[0].Time, g[1].Time)}
}

// arg is the swept value of a sweep case's result.
func arg(r Result) int {
	n, _ := strconv.Atoi(r.Group)
	return n
}

func ms(d time.Duration) string { return fmt.Sprintf("%.3f", millis(d)) }

func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func ratio(a, b time.Duration) string {
	if a == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(b)/float64(a))
}

func num(v float64) string { return fmt.Sprintf("%.0f", v) }
