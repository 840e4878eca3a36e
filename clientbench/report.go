package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"gluenail"
)

// metric is one reported number, or the reason it does not apply.
type metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Value  *float64 `json:"value,omitempty"`
	Absent string   `json:"absent,omitempty"`
}

// The metrics on the JSON result line: the ones BENCHMARK.json lists.
// Each applies to every workload and is never 0 there; the full set,
// with the workload-specific ones and absent ones marked, is printed
// above the line and saved in the run's report file. read_qps and
// read_p99_ms are only printed: on a shared machine they move with the CPU
// time the hypervisor steals by more than the largest bound a gated
// metric may have, and with every session closed-loop or paced, read_qps
// adds nothing to read_p50_ms.
var (
	endToEndNames = []string{"read_p50_ms", "cpu_ms_per_op", "setup_s", "live_heap_mib", "peak_rss_mib"}
	perLayerNames = []string{"trace.read_root_us", "server.req_encode_us", "server.req_decode_us",
		"snapshot.capture_us", "plan.prepare_us", "vm.exec_us", "server.resp_encode_us",
		"snapshot.close_us", "server.resp_decode_us", "server.residual_us", "parser.parse_us",
		"plan.compile_share", "plan.procs", "vm.rows_out", "server.resp_bytes",
		"storage.read_calls", "storage.read_bytes",
		"runtime.allocs_per_op", "runtime.alloc_bytes_per_op", "runtime.gc_cpu_share"}
)

// Counters the benchmark cannot observe from outside the program. They
// are reported absent, never as 0.
var gaps = []metric{
	{Name: "storage.block_cache_hit_ratio", Unit: "share", Absent: "snapshot reads count block-cache hits in a " +
		"private storage.Stats per snapshot machine, and System.Stats reads only the System's " +
		"(ROADMAP items 1 and 5)"},
	{Name: "plan.cache_hit_ratio", Unit: "share", Absent: "snapshot machines keep private plan caches; " +
		"PlanCacheStats and the stats op read only the System machine (ROADMAP items 1 and 5)"},
}

type result struct {
	w         *workload
	metrics   []metric
	attempted int
	failed    int
	correct   bool
	wrong     error
	spans     []span
}

func newResult(w *workload, ph *phase) *result {
	r := &result{w: w, correct: true}
	for _, l := range ph.logs {
		r.attempted += l.attempted
		r.failed += l.failed
		if l.wrong != nil {
			r.fail(l.wrong)
		}
	}
	return r
}

func (r *result) fail(err error) {
	if r.correct {
		r.correct, r.wrong = false, err
	}
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: &v})
}

func (r *result) absent(name, unit, why string) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Absent: why})
}

const noWrites = "the workload sends no writes"

// endToEnd adds the client-side metrics of an untraced phase.
func (r *result) endToEnd(ph *phase) {
	reads, writes := ph.latencies()
	win := ph.windowed()
	r.add("read_qps", "reads/s", median(win.readRate))
	r.add("read_p50_ms", "ms", median(millis(reads)))
	r.add("read_p99_ms", "ms", quantile(millis(reads), 0.99))
	if len(writes) > 0 {
		r.add("write_qps", "stmts/s", median(win.writeRate))
		r.add("write_p50_ms", "ms", median(millis(writes)))
		r.add("write_p99_ms", "ms", quantile(millis(writes), 0.99))
	} else {
		r.absent("write_qps", "stmts/s", noWrites)
		r.absent("write_p50_ms", "ms", noWrites)
		r.absent("write_p99_ms", "ms", noWrites)
	}
	r.add("cpu_ms_per_op", "ms", median(win.cpuPerOp))
	var attempted, failed int
	for _, l := range ph.logs {
		attempted += l.attempted
		failed += l.failed
	}
	r.add("fail_share", "share", float64(failed)/float64(attempted))
	r.add("host.steal_share", "share", ph.stealShare())
}

// recover reopens the data directory after the run, times it, and checks
// its contents against the sessions' model.
func (r *result) recover(w *workload, dir string, streams []stream) error {
	if !w.durable {
		const why = "main-memory engine without a WAL: there is no data directory"
		r.absent("recover_s", "s", why)
		r.absent("space_amp", "ratio", why)
		return nil
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.add("space_amp", "ratio", float64(size)/float64(w.userBytes(streams)))
	t0 := time.Now()
	sys, err := gluenail.Open(dir, w.options...)
	if err != nil {
		return fmt.Errorf("reopening %s: %w", dir, err)
	}
	r.add("recover_s", "s", time.Since(t0).Seconds())
	if err := w.verify(sys, streams); err != nil {
		r.fail(fmt.Errorf("recovery: %w", err))
	}
	return sys.Close()
}

// addStorageCounts adds the disk engine's flush and compaction counts,
// read from System.Stats().EDB.
func (r *result) addStorageCounts(flushed, compacted int64) {
	if !r.w.durable {
		r.absent("storage.runs_flushed", "count", "main-memory engine: no runs")
		r.absent("storage.runs_compacted", "count", "main-memory engine: no runs")
		return
	}
	r.add("storage.runs_flushed", "count", float64(flushed))
	r.add("storage.runs_compacted", "count", float64(compacted))
}

// layers adds the per-layer metrics of a traced replay. A layer's time
// per op is the self time of its spans in that op (span minus its child
// spans); times are medians over ops, counts are means per op.
func (r *result) layers(ph *phase, ts *tracedSession, procs int) {
	spans, ops := ts.tr.spans, ts.ops
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	perOp := map[string][]float64{} // span name -> self µs per op
	calls := map[string][]float64{}
	bytes := map[string][]float64{}
	total := map[string]float64{} // span name -> bytes over the whole replay
	count := map[string]int{}
	var syncs []float64
	for i, s := range spans {
		total[s.Name] += float64(s.Bytes)
		count[s.Name]++
		if s.Name == "wal.sync" {
			syncs = append(syncs, float64(s.End-s.Start)/1e3)
		}
		if s.Op < 0 {
			continue
		}
		if perOp[s.Name] == nil {
			perOp[s.Name] = make([]float64, len(ops))
			calls[s.Name] = make([]float64, len(ops))
			bytes[s.Name] = make([]float64, len(ops))
		}
		perOp[s.Name][s.Op] += float64(max(self[i], 0)) / 1e3
		calls[s.Name][s.Op]++
		bytes[s.Name][s.Op] += float64(s.Bytes)
	}
	// over picks one value per op of one kind; names are summed.
	over := func(m map[string][]float64, write bool, names ...string) []float64 {
		var out []float64
		for i, op := range ops {
			if op.write != write {
				continue
			}
			v := 0.0
			for _, n := range names {
				if m[n] != nil {
					v += m[n][i]
				}
			}
			out = append(out, v)
		}
		return out
	}
	rootUS := func(write bool) []float64 {
		var out []float64
		for _, op := range ops {
			if op.write == write {
				out = append(out, float64(spans[op.root].End-spans[op.root].Start)/1e3)
			}
		}
		return out
	}
	clientReads, clientWrites := ph.latencies()

	var reads, newTexts int
	var parse, rows, respBytes []float64
	var userBytes int64
	for _, op := range ops {
		userBytes += op.userBytes
		if op.write {
			continue
		}
		reads++
		if op.newText {
			newTexts++
		}
		parse = append(parse, float64(op.parse)/1e3)
		rows = append(rows, float64(op.rows))
		respBytes = append(respBytes, float64(op.respBytes))
	}
	root := median(rootUS(false))
	r.add("trace.read_root_us", "us", root)
	for _, n := range []string{"server.req_encode", "server.req_decode", "snapshot.capture", "plan.prepare",
		"vm.exec", "server.resp_encode", "snapshot.close", "server.resp_decode"} {
		r.add(n+"_us", "us", median(over(perOp, false, n)))
	}
	r.add("server.residual_us", "us", median(millis(clientReads))*1e3-root)
	r.add("parser.parse_us", "us", median(parse))
	r.add("plan.compile_share", "share", float64(newTexts)/float64(reads))
	r.add("plan.procs", "count", float64(procs))
	r.add("vm.rows_out", "rows", mean(rows))
	r.add("server.resp_bytes", "bytes", mean(respBytes))
	r.add("storage.read_us", "us", median(over(perOp, false, "storage.read")))
	r.add("storage.read_calls", "count", mean(over(calls, false, "storage.read")))
	r.add("storage.read_bytes", "bytes", mean(over(bytes, false, "storage.read")))

	completed := len(clientReads) + len(clientWrites)
	r.add("runtime.allocs_per_op", "count", float64(ph.rt.allocs)/float64(completed))
	r.add("runtime.alloc_bytes_per_op", "bytes", float64(ph.rt.allocBytes)/float64(completed))
	r.add("runtime.gc_cpu_share", "share", ph.rt.gcCPU/ph.rt.totalCPU)

	writes := len(ops) - reads
	if writes == 0 {
		for _, m := range []struct{ n, u string }{{"trace.write_root_us", "us"}, {"server.write_codec_us", "us"},
			{"vm.write_us", "us"}, {"wal.write_us", "us"}, {"wal.sync_us", "us"}, {"wal.sync_p99_us", "us"},
			{"wal.syncs_per_write", "count"}, {"wal.bytes_per_write", "bytes"}, {"wal.checkpoints", "count"},
			{"storage.write_us", "us"}, {"storage.write_amp", "ratio"}, {"server.write_residual_us", "us"}} {
			r.absent(m.n, m.u, noWrites)
		}
		return
	}
	writeRoot := median(rootUS(true))
	r.add("trace.write_root_us", "us", writeRoot)
	r.add("server.write_codec_us", "us", median(over(perOp, true,
		"server.req_encode", "server.req_decode", "server.resp_encode", "server.resp_decode")))
	r.add("vm.write_us", "us", median(over(perOp, true, "vm.write")))
	r.add("wal.write_us", "us", median(over(perOp, true, "wal.write")))
	r.add("wal.sync_us", "us", median(syncs))
	r.add("wal.sync_p99_us", "us", quantile(syncs, 0.99))
	r.add("wal.syncs_per_write", "count", float64(count["wal.sync"])/float64(writes))
	r.add("wal.bytes_per_write", "bytes", total["wal.write"]/float64(writes))
	r.add("wal.checkpoints", "count", float64(count["wal.checkpoint"]))
	r.add("storage.write_us", "us", mean(over(perOp, true, "storage.write", "storage.sync")))
	r.add("storage.write_amp", "ratio", total["storage.write"]/float64(userBytes))
	r.add("server.write_residual_us", "us", median(millis(clientWrites))*1e3-writeRoot)
}

func (r *result) find(name string) *metric {
	for i := range r.metrics {
		if r.metrics[i].Name == name {
			return &r.metrics[i]
		}
	}
	return nil
}

// print writes one line per metric, then the JSON result line with the
// metrics BENCHMARK.json lists for this mode. It fails, printing no result
// line, if a metric is not a number.
func (r *result) print(out io.Writer, traced bool) error {
	fmt.Fprintf(out, "clientbench %s: attempted=%d failed=%d correct=%v\n", r.w.name, r.attempted, r.failed, r.correct)
	for _, m := range append(r.metrics, gaps...) {
		if m.Value != nil {
			fmt.Fprintf(out, "  %-30s %14.4f %s\n", m.Name, *m.Value, m.Unit)
		} else {
			fmt.Fprintf(out, "  %-30s %14s %s (%s)\n", m.Name, "absent", m.Unit, m.Absent)
		}
	}
	names := endToEndNames
	if traced {
		names = perLayerNames
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, n := range names {
		if m := r.find(n); m != nil && m.Value != nil {
			line.Metrics[n] = value{*m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// report is the saved form of a run: every metric, absent ones with the
// reason.
func (r *result) report() any {
	wrong := ""
	if r.wrong != nil {
		wrong = r.wrong.Error()
	}
	return struct {
		Workload  string   `json:"workload"`
		Correct   bool     `json:"correct"`
		Wrong     string   `json:"wrong,omitempty"`
		Attempted int      `json:"attempted"`
		Failed    int      `json:"failed"`
		Metrics   []metric `json:"metrics"`
	}{r.w.name, r.correct, wrong, r.attempted, r.failed, append(r.metrics, gaps...)}
}
