package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"gluenail"
)

// opKind is the wire operation a request uses.
type opKind int

const (
	opQuery opKind = iota
	opAssert
	opRetract
)

// request is one generated client statement: a query text, or one batch
// of kv rows to assert or retract. The server receives nothing else.
type request struct {
	kind  opKind
	goals string
	rel   string
	rows  [][2]int64
	batch int // write-mix: the writer's batch number
}

func (r request) write() bool { return r.kind != opQuery }

// stream is one session's request generator and answer oracle. next is
// deterministic given the seed and the acknowledgements it has seen.
type stream interface {
	next() request
	// check verifies a read answer; rows are the result columns as ints.
	check(req request, rows [][]int64) error
	// done reports a write's outcome: ok means the server acknowledged it.
	done(req request, ok bool)
}

// workload is one traffic mix: the database it runs on, the sessions'
// request streams, and how its state is verified after the run.
type workload struct {
	name    string
	durable bool // disk engine plus WAL under a data directory
	program string
	options []gluenail.Option
	// load fills the database during set-up.
	load func(sys *gluenail.System) error
	// texts are the query texts compiled at the end of set-up: every text
	// the readers can send, where that set is bounded, so the measured run
	// starts with the compile set full, as a long-running server's is.
	texts []string
	// streams returns fresh session streams; streams()[0] is always a
	// reader, whose first request is the set-up probe.
	streams func() []stream
	// pace is each session's fixed interval between requests; 0 leaves a
	// session unpaced, sending as fast as its replies come back.
	pace []time.Duration
	// verify checks the reopened data directory against the streams'
	// model of acknowledged statements (durable workloads only).
	verify func(sys *gluenail.System, streams []stream) error
	// userBytes is the live user data the run leaves behind.
	userBytes func(streams []stream) int64
}

// userBytesPerValue defines the benchmark's "user byte": every stored
// value is an integer and counts as 8 bytes, so a live kv(K,V) row is 16
// user bytes. space_amp and storage.write_amp divide by it.
const userBytesPerValue = 8

var workloadNames = []string{"tc-read", "write-mix", "disk-lookup"}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "tc-read":
		return tcRead(seed), nil
	case "write-mix":
		return writeMix(seed), nil
	case "disk-lookup":
		return diskLookup(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// sessionRand gives session s of a run its own generator, so each
// session's stream depends only on the seed and its index.
func sessionRand(seed int64, s int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(s) + 1))
}

// ---- tc-read ----

// tc-read: the paper's headline path. A bound recursive query goes
// through magic sets and semi-naive evaluation, over the full client
// path, with no disk and no WAL.
const (
	tcComponents = 64
	tcSize       = 128 // nodes per component
	tcMaxStep    = 20  // an edge goes 1..tcMaxStep nodes ahead
	tcStarts     = 512
	tcSessions   = 2
)

func tcRead(seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	n := tcComponents * tcSize
	succ := make([][]int64, n)
	var edges [][]any
	for c := 0; c < tcComponents; c++ {
		for i := 0; i < tcSize; i++ {
			from := c*tcSize + i
			d1 := 1 + rng.Intn(tcMaxStep)
			d2 := 1 + rng.Intn(tcMaxStep-1)
			if d2 >= d1 {
				d2++
			}
			for _, d := range []int{d1, d2} {
				if i+d < tcSize {
					succ[from] = append(succ[from], int64(from+d))
					edges = append(edges, []any{from, from + d})
				}
			}
		}
	}
	starts := rng.Perm(n)[:tcStarts]
	want := make(map[int64][]int64, tcStarts)
	texts := make([]string, tcStarts)
	for i, s := range starts {
		want[int64(s)] = reachable(succ, int64(s))
		texts[i] = tcText(s)
	}
	return &workload{
		name:    "tc-read",
		program: "edb edge(X,Y); tc(X,Y) :- edge(X,Y). tc(X,Z) :- tc(X,Y) & edge(Y,Z).",
		options: []gluenail.Option{gluenail.WithOutput(io.Discard)},
		load:    func(sys *gluenail.System) error { return sys.Assert("edge", edges...) },
		texts:   texts,
		streams: func() []stream {
			out := make([]stream, tcSessions)
			for s := range out {
				out[s] = &tcStream{rng: sessionRand(seed, s), starts: starts, want: want}
			}
			return out
		},
	}
}

// reachable is the oracle: a BFS over the DAG, independent of the engine.
func reachable(succ [][]int64, from int64) []int64 {
	seen := map[int64]bool{}
	queue := append([]int64(nil), succ[from]...)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if seen[v] {
			continue
		}
		seen[v] = true
		queue = append(queue, succ[v]...)
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type tcStream struct {
	rng    *rand.Rand
	starts []int
	want   map[int64][]int64
}

func (t *tcStream) next() request {
	k := t.starts[t.rng.Intn(len(t.starts))]
	return request{kind: opQuery, goals: tcText(k)}
}

func tcText(k int) string { return fmt.Sprintf("tc(%d,X)", k) }

func (t *tcStream) check(req request, rows [][]int64) error {
	var k int64
	if _, err := fmt.Sscanf(req.goals, "tc(%d,X)", &k); err != nil {
		return err
	}
	got := make([]int64, len(rows))
	for i, r := range rows {
		if len(r) != 1 {
			return fmt.Errorf("%s: row %v has %d columns, want 1", req.goals, r, len(r))
		}
		got[i] = r[0]
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return sameInts(req.goals, got, t.want[k])
}

func (t *tcStream) done(request, bool) {}

func sameInts(what string, got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, oracle has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: row %d is %d, oracle has %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// ---- write-mix ----

// write-mix: writes beside reads, with the fsync of every statement on
// the writer's foreground path. Set-up loads the writer's first wmLive
// rows, so the run starts with the live set full. Reads are fully bound
// probes over a fixed set of texts compiled in set-up, so recursion and
// compilation are bypassed.
const (
	wmProbeKeys = 1024  // reader keys; the first half is present
	wmBatch     = 16    // rows per write statement
	wmLive      = 65536 // live writer rows; past it each assert is followed by a retract
	wmKeySpace  = 1 << 20
	wmWriterKey = 1 << 40 // writer keys start here, disjoint from reader keys
	// Both sessions are paced: the reader at 100 probes/s, the writer at
	// 80 statements/s. Unpaced, the two loops contend for the System lock
	// and split the machine differently from run to run, and the writer's
	// retracts, whose cost grows with every row retracted, reach a
	// different depth in every run. At these rates the writer keeps up for
	// the whole run, so each run does the same work and the latencies show
	// what that work costs.
	wmReadPace  = 10 * time.Millisecond
	wmWritePace = 12500 * time.Microsecond
)

func writeMix(seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][2]int64, wmProbeKeys)
	seen := map[int64]bool{}
	for i := range keys {
		k := rng.Int63n(wmKeySpace)
		for seen[k] {
			k = rng.Int63n(wmKeySpace)
		}
		seen[k] = true
		keys[i] = [2]int64{k, rng.Int63n(wmKeySpace)}
	}
	present := map[[2]int64]bool{}
	for _, kv := range keys[:wmProbeKeys/2] {
		present[kv] = true
	}
	batchRows := func(b int) [][2]int64 {
		rows := make([][2]int64, wmBatch)
		for j := range rows {
			k := int64(wmWriterKey + b*wmBatch + j)
			rows[j] = [2]int64{k, (k*2654435761 + seed) & (wmKeySpace - 1)}
		}
		return rows
	}
	texts := make([]string, len(keys))
	for i, kv := range keys {
		texts[i] = probeText(kv)
	}
	return &workload{
		name:    "write-mix",
		durable: true,
		program: "edb kv(K,V);",
		options: []gluenail.Option{gluenail.WithOutput(io.Discard), gluenail.WithBackend("disk"),
			gluenail.WithFsync(gluenail.FsyncAlways)},
		load: func(sys *gluenail.System) error {
			var rows [][]any
			for _, kv := range keys[:wmProbeKeys/2] {
				rows = append(rows, []any{kv[0], kv[1]})
			}
			for b := 0; b < wmLive/wmBatch; b++ {
				for _, kv := range batchRows(b) {
					rows = append(rows, []any{kv[0], kv[1]})
				}
			}
			if err := sys.Assert("kv", rows...); err != nil {
				return err
			}
			return sys.Checkpoint()
		},
		texts: texts,
		streams: func() []stream {
			return []stream{
				&probeStream{rng: sessionRand(seed, 0), keys: keys, present: present},
				newWriterStream(batchRows),
			}
		},
		pace: []time.Duration{wmReadPace, wmWritePace},
		verify: func(sys *gluenail.System, streams []stream) error {
			want := map[[2]int64]bool{}
			for kv := range present {
				want[kv] = true
			}
			for _, b := range streams[1].(*writerStream).live {
				for _, kv := range batchRows(b) {
					want[kv] = true
				}
			}
			return sameRelation(sys, "kv", want)
		},
		userBytes: func(streams []stream) int64 {
			live := len(present) + len(streams[1].(*writerStream).live)*wmBatch
			return int64(live) * 2 * userBytesPerValue
		},
	}
}

func probeText(kv [2]int64) string { return fmt.Sprintf("kv(%d,%d)", kv[0], kv[1]) }

// probeStream sends fully bound kv(K,V) probes, uniform over the probe
// keys: a present key answers one empty row, an absent key none.
type probeStream struct {
	rng     *rand.Rand
	keys    [][2]int64
	present map[[2]int64]bool
}

func (p *probeStream) next() request {
	i := p.rng.Intn(len(p.keys))
	return request{kind: opQuery, goals: probeText(p.keys[i])}
}

func (p *probeStream) check(req request, rows [][]int64) error {
	var k, v int64
	if _, err := fmt.Sscanf(req.goals, "kv(%d,%d)", &k, &v); err != nil {
		return err
	}
	want := 0
	if p.present[[2]int64{k, v}] {
		want = 1
	}
	if len(rows) != want || (want == 1 && len(rows[0]) != 0) {
		return fmt.Errorf("%s: answer %v, oracle has %d empty rows", req.goals, rows, want)
	}
	return nil
}

func (p *probeStream) done(request, bool) {}

// writerStream asserts batch after batch of new kv rows and, once the
// live set has passed wmLive rows, follows each assert with a retract of
// the oldest acknowledged batch. live is its model of the durable state.
type writerStream struct {
	rows      func(batch int) [][2]int64
	live      []int // acknowledged, not yet retracted, oldest first
	nextBatch int
	retract   bool
}

// newWriterStream starts the writer where set-up left it: the first
// wmLive rows, batches 0 to wmLive/wmBatch-1, are live and acknowledged.
func newWriterStream(rows func(batch int) [][2]int64) *writerStream {
	w := &writerStream{rows: rows, nextBatch: wmLive / wmBatch}
	for b := 0; b < w.nextBatch; b++ {
		w.live = append(w.live, b)
	}
	return w
}

func (w *writerStream) next() request {
	if w.retract {
		b := w.live[0]
		return request{kind: opRetract, rel: "kv", rows: w.rows(b), batch: b}
	}
	b := w.nextBatch
	w.nextBatch++
	return request{kind: opAssert, rel: "kv", rows: w.rows(b), batch: b}
}

func (w *writerStream) check(req request, rows [][]int64) error {
	return fmt.Errorf("writer session got a read answer for %v", req.kind)
}

func (w *writerStream) done(req request, ok bool) {
	if !ok {
		return // a refused assert is dropped; a refused retract is retried
	}
	if req.kind == opAssert {
		w.live = append(w.live, req.batch)
		w.retract = len(w.live)*wmBatch > wmLive
		return
	}
	w.live = w.live[1:]
	w.retract = false
}

// sameRelation compares a relation's full contents with want.
func sameRelation(sys *gluenail.System, rel string, want map[[2]int64]bool) error {
	rows, err := sys.Relation(rel, 2)
	if err != nil {
		return err
	}
	if len(rows) != len(want) {
		return fmt.Errorf("%s holds %d rows after reopen, the model has %d", rel, len(rows), len(want))
	}
	for _, r := range rows {
		kv := [2]int64{r[0].Int(), r[1].Int()}
		if !want[kv] {
			return fmt.Errorf("%s holds %v after reopen, which the model does not", rel, kv)
		}
	}
	return nil
}

// ---- disk-lookup ----

// disk-lookup: a larger-than-cache join on the disk engine. Block cache,
// run reads and decoding dominate; the mem engine and the WAL are
// bypassed, and Zipf keys keep compiling new query texts.
const (
	dlRows        = 65536 // rows in kv and in val
	dlCacheBlocks = 32    // 8,192 rows: kv and val are ~16x the cache
	dlZipfS       = 1.1
	dlSessions    = 2
)

func diskLookup(seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	keys := rng.Perm(dlRows) // Zipf rank -> key
	kv := make([]int64, dlRows)
	val := make([]int64, dlRows)
	for i := range kv {
		kv[i] = rng.Int63n(dlRows)
		val[i] = rng.Int63n(1 << 30)
	}
	return &workload{
		name:    "disk-lookup",
		durable: true,
		program: "edb kv(K,V); edb val(V,W);",
		options: []gluenail.Option{gluenail.WithOutput(io.Discard), gluenail.WithBackend("disk"),
			gluenail.WithBlockCache(dlCacheBlocks)},
		load: func(sys *gluenail.System) error {
			kvRows := make([][]any, dlRows)
			valRows := make([][]any, dlRows)
			for i := range kvRows {
				kvRows[i] = []any{i, kv[i]}
				valRows[i] = []any{i, val[i]}
			}
			if err := sys.Assert("kv", kvRows...); err != nil {
				return err
			}
			if err := sys.Assert("val", valRows...); err != nil {
				return err
			}
			return sys.Checkpoint()
		},
		streams: func() []stream {
			out := make([]stream, dlSessions)
			for s := range out {
				r := sessionRand(seed, s)
				out[s] = &joinStream{zipf: rand.NewZipf(r, dlZipfS, 1, dlRows-1), keys: keys, kv: kv, val: val}
			}
			return out
		},
		verify: func(sys *gluenail.System, _ []stream) error {
			want := map[[2]int64]bool{}
			for i, v := range kv {
				want[[2]int64{int64(i), v}] = true
			}
			return sameRelation(sys, "kv", want)
		},
		userBytes: func([]stream) int64 { return 2 * dlRows * 2 * userBytesPerValue },
	}
}

// joinStream sends kv(K,V) & val(V,W) with K Zipf-distributed over the
// scrambled keys; the oracle is the same join done on Go slices.
type joinStream struct {
	zipf    *rand.Zipf
	keys    []int
	kv, val []int64
}

func (j *joinStream) next() request {
	k := j.keys[j.zipf.Uint64()]
	return request{kind: opQuery, goals: fmt.Sprintf("kv(%d,V) & val(V,W)", k)}
}

func (j *joinStream) check(req request, rows [][]int64) error {
	var k int64
	if _, err := fmt.Sscanf(req.goals, "kv(%d,V) & val(V,W)", &k); err != nil {
		return err
	}
	v := j.kv[k]
	if len(rows) != 1 || len(rows[0]) != 2 || rows[0][0] != v || rows[0][1] != j.val[v] {
		return fmt.Errorf("%s: answer %v, oracle has [[%d %d]]", req.goals, rows, v, j.val[v])
	}
	return nil
}

func (j *joinStream) done(request, bool) {}
