// Command clientbench is the repository's benchmark. It drives one of
// three workloads (tc-read, write-mix, disk-lookup) through an in-process
// gluenaild on loopback, checks every answer against an oracle of its
// own, and prints the end-to-end metrics. With --trace 1 it replays the
// same requests in process, timing the public call each layer exposes,
// and prints the per-layer metrics instead. The last line of standard
// output is one JSON object; README.md describes the workloads and every
// metric.
//
// Usage (from the repository root):
//
//	bash clientbench/run.sh --workload tc-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gluenail"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	dir      string // work directory for data directories and reports
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "tc-read, write-mix or disk-lookup")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated data and requests")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured traffic time per run")
	flag.IntVar(&cfg.trace, "trace", 0, "1 replays the run in process and reports per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "clientbench"), "work directory")
	flag.Parse()
	if flag.NArg() > 0 || (cfg.trace != 0 && cfg.trace != 1) || cfg.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clientbench:", err)
		os.Exit(1)
	}
	if err := res.save(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "clientbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, cfg.trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "clientbench:", err)
		os.Exit(1)
	}
	if !res.correct {
		fmt.Fprintln(os.Stderr, "clientbench: wrong answer:", res.wrong)
		os.Exit(1)
	}
}

// run executes one benchmark run in a private data directory under
// cfg.dir, which it removes again.
func run(cfg config) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(cfg.dir, fmt.Sprintf("data-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	d := time.Duration(cfg.seconds) * time.Second
	if cfg.trace == 1 {
		return runTraced(w, work, d)
	}
	return runMeasured(w, work, d)
}

// A run sets its workload up at least minSetups times and for at least
// setupTime, and reports the median as setup_s; the last set-up serves
// the traffic.
const (
	minSetups = 5
	setupTime = time.Second
)

// runMeasured is the untraced run: the end-to-end metrics.
func runMeasured(w *workload, work string, d time.Duration) (*result, error) {
	n := len(w.streams())
	var setupTimes []float64
	var in *instance
	for i, t0 := 0, time.Now(); ; i++ {
		dir := filepath.Join(work, fmt.Sprintf("db%d", i))
		inst, took, err := setUp(w, dir, n)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, took.Seconds())
		if i+1 >= minSetups && time.Since(t0) >= setupTime {
			in = inst
			break
		}
		if err := inst.stop(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}
	streams := w.streams()
	edb0 := in.sys.Stats().EDB
	ph := measure(in, w, streams, d)
	edb1 := in.sys.Stats().EDB
	res := newResult(w, ph)
	res.add("setup_s", "s", median(setupTimes))
	res.add("live_heap_mib", "MiB", float64(liveHeap())/(1<<20))
	if err := in.stop(); err != nil {
		return nil, err
	}
	res.endToEnd(ph)
	res.add("peak_rss_mib", "MiB", float64(peakRSS())/(1<<20))
	res.addStorageCounts(edb1.RunsFlushed-edb0.RunsFlushed, edb1.RunsCompacted-edb0.RunsCompacted)
	if err := res.recover(w, in.dir, streams); err != nil {
		return nil, err
	}
	return res, nil
}

// runTraced measures one untraced phase for its op counts, answers and
// client latencies, then replays exactly those requests in process on a
// fresh set-up with every layer call timed.
func runTraced(w *workload, work string, d time.Duration) (*result, error) {
	n := len(w.streams())
	dir := filepath.Join(work, "db-untraced")
	in, _, err := setUp(w, dir, n)
	if err != nil {
		return nil, err
	}
	ph := measure(in, w, w.streams(), d)
	if err := in.stop(); err != nil {
		return nil, err
	}
	os.RemoveAll(dir)

	res := newResult(w, ph)
	counts := make([]int, n)
	for s, l := range ph.logs {
		counts[s] = l.attempted
	}
	tr := newTracer()
	dir = filepath.Join(work, "db-traced")
	var fs gluenail.FS
	if w.durable {
		fs = newTimingFS(dir, tr)
	}
	sys, err := openSystem(w, dir, fs)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	ts := &tracedSession{sys: sys, tr: tr, texts: map[string]bool{}}
	for _, t := range w.texts {
		ts.texts[t] = true
	}
	probe := w.streams()[0]
	req := probe.next()
	rows, err := ts.exec(req) // the set-up probe, as in the untraced run
	if err == nil {
		err = probe.check(req, rows)
	}
	if err != nil {
		return nil, fmt.Errorf("traced set-up probe %q: %w", req.goals, err)
	}
	ts.ops, tr.spans = nil, nil

	edb0 := sys.Stats().EDB
	tr.on.Store(true)
	logs := replay(ts, w.streams(), counts)
	tr.on.Store(false)
	edb1 := sys.Stats().EDB
	procs, err := sys.Procs()
	if err != nil {
		return nil, err
	}
	for s := range logs {
		res.attempted += logs[s].attempted
		res.failed += logs[s].failed
		if logs[s].wrong != nil {
			res.fail(logs[s].wrong)
		} else if logs[s].digest != ph.logs[s].digest {
			res.fail(fmt.Errorf("session %d: traced answers differ from the untraced run's", s))
		}
	}
	res.layers(ph, ts, len(procs))
	res.addStorageCounts(edb1.RunsFlushed-edb0.RunsFlushed, edb1.RunsCompacted-edb0.RunsCompacted)
	res.spans = tr.spans
	return res, nil
}

// save writes the full report, every metric with absent ones marked, and
// in a traced run the spans, next to the data directories.
func (r *result) save(cfg config) error {
	base := filepath.Join(cfg.dir, fmt.Sprintf("%s-trace%d", r.w.name, cfg.trace))
	b, err := json.MarshalIndent(r.report(), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if r.spans != nil {
		return writeSpans(base+".spans.jsonl", r.spans)
	}
	return nil
}
