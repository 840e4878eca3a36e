package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gluenail"
	"gluenail/internal/parser"
	"gluenail/internal/server"
	"gluenail/internal/storage/fsio"
	"gluenail/internal/term"
)

// span is one timed call at a layer boundary. Spans stay in memory and are
// written out when the run ends.
type span struct {
	Name       string
	Op         int32 // op id; -1 for file I/O outside any op
	Parent     int32 // index of the enclosing span; -1 for a root
	Start, End int64 // nanoseconds since the tracer started
	Bytes      int64
}

// tracer records spans. One goroutine plays the sessions and opens and
// closes the call spans; file spans arrive from any goroutine (morsel
// workers, the compactor) and nest under whichever call span is open.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	open  []int32 // stack of open call spans
	op    int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a call span under the innermost open one.
func (t *tracer) begin(name string) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.top(), Start: start})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open call span, which must be id.
func (t *tracer) end(id int32) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) top() int32 {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// file records a finished file operation as a child of the open call
// span. I/O with no span open (background compaction between ops) is
// kept with op -1.
func (t *tracer) file(name string, start int64, n int) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	op := t.op
	if len(t.open) == 0 {
		op = -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: t.top(), Start: start, End: end, Bytes: int64(n)})
}

// timingFS is the fsio.FS passed with WithFS in the traced run. It times
// every file read, write and sync and names the layer by path: run files
// under <dir>/store are storage, WAL segments and checkpoints are wal.
type timingFS struct {
	fsio.FS
	store string
	tr    *tracer
}

func newTimingFS(dir string, tr *tracer) *timingFS {
	return &timingFS{FS: fsio.OS, store: filepath.Join(dir, "store") + string(filepath.Separator), tr: tr}
}

func (f *timingFS) layer(path string) string {
	if strings.HasPrefix(path+string(filepath.Separator), f.store) {
		return "storage"
	}
	return "wal"
}

func (f *timingFS) wrap(file fsio.File, err error) (fsio.File, error) {
	if err != nil {
		return nil, err
	}
	name := file.Name()
	if f.tr.on.Load() && f.layer(name) == "wal" && strings.HasPrefix(filepath.Base(name), "snap-") {
		f.tr.file("wal.checkpoint", f.tr.now(), 0)
	}
	return &timedFile{File: file, fs: f, layer: f.layer(name)}, nil
}

func (f *timingFS) Open(name string) (fsio.File, error) { return f.wrap(f.FS.Open(name)) }
func (f *timingFS) Create(name string) (fsio.File, error) {
	return f.wrap(f.FS.Create(name))
}
func (f *timingFS) OpenFile(name string, flag int, perm os.FileMode) (fsio.File, error) {
	return f.wrap(f.FS.OpenFile(name, flag, perm))
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	start := f.tr.now()
	b, err := f.FS.ReadFile(name)
	if f.tr.on.Load() {
		f.tr.file(f.layer(name)+".read", start, len(b))
	}
	return b, err
}

func (f *timingFS) SyncDir(dir string) error {
	start := f.tr.now()
	err := f.FS.SyncDir(dir)
	if f.tr.on.Load() {
		f.tr.file(f.layer(dir)+".sync", start, 0)
	}
	return err
}

type timedFile struct {
	fsio.File
	fs    *timingFS
	layer string
}

func (f *timedFile) record(kind string, start int64, n int) {
	if f.fs.tr.on.Load() {
		f.fs.tr.file(f.layer+kind, start, n)
	}
}

func (f *timedFile) ReadAt(p []byte, off int64) (int, error) {
	start := f.fs.tr.now()
	n, err := f.File.ReadAt(p, off)
	f.record(".read", start, n)
	return n, err
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := f.fs.tr.now()
	n, err := f.File.Write(p)
	f.record(".write", start, n)
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	start := f.fs.tr.now()
	n, err := f.File.WriteAt(p, off)
	f.record(".write", start, n)
	return n, err
}

func (f *timedFile) Sync() error {
	start := f.fs.tr.now()
	err := f.File.Sync()
	f.record(".sync", start, 0)
	return err
}

// opRecord is what the traced session learned about one op beyond its
// spans.
type opRecord struct {
	write     bool
	root      int32
	parse     time.Duration // parser.ParseGoals, timed beside the op
	newText   bool          // first read of this query text
	rows      int
	respBytes int
	userBytes int64 // user bytes an assert adds
}

// tracedSession plays a gluenaild session in process: it calls the
// public functions session.go calls, in the same order, and wraps each in
// a span. It has no listener, admission gate or dispatch; the untraced
// client p50 minus the traced root p50 is that residual.
type tracedSession struct {
	sys   *gluenail.System
	tr    *tracer
	ops   []opRecord
	texts map[string]bool
}

func (ts *tracedSession) exec(req request) ([][]int64, error) {
	tr := ts.tr
	rec := opRecord{write: req.write()}
	tr.mu.Lock()
	tr.op = int32(len(ts.ops))
	tr.mu.Unlock()
	rec.root = tr.begin("op")
	rows, err := ts.call(req, &rec)
	tr.end(rec.root)
	if !rec.write {
		t0 := time.Now()
		if _, perr := parser.ParseGoals(req.goals); perr != nil && err == nil {
			err = perr
		}
		rec.parse = time.Since(t0)
		rec.newText = !ts.texts[req.goals]
		ts.texts[req.goals] = true
	}
	ts.ops = append(ts.ops, rec)
	return rows, err
}

func (ts *tracedSession) call(req request, rec *opRecord) ([][]int64, error) {
	tr := ts.tr
	var buf bytes.Buffer
	sp := tr.begin("server.req_encode")
	err := server.WriteFrame(&buf, wireRequest(req))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var in server.Request
	sp = tr.begin("server.req_decode")
	err = server.ReadFrame(&buf, &in)
	var rel term.Value
	var args [][]any
	if err == nil && req.write() {
		if rel, err = server.DecodeValue(*in.Rel); err == nil {
			args, err = server.DecodeRows(in.Rows)
		}
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	resp := &server.Response{ID: in.ID, OK: true}
	if req.write() {
		sp = tr.begin("vm.write")
		if in.Op == "assert" {
			err = ts.sys.Assert(rel, args...)
		} else {
			err = ts.sys.Retract(rel, args...)
		}
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if in.Op == "assert" {
			rec.userBytes = int64(len(args)) * 2 * userBytesPerValue
		}
		sp = tr.begin("server.resp_encode")
		resp.CSN = ts.sys.CSN()
		err = server.WriteFrame(&buf, resp)
		tr.end(sp)
	} else {
		err = ts.read(&in, resp, &buf, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.respBytes = buf.Len()

	var out server.Response
	sp = tr.begin("server.resp_decode")
	err = server.ReadFrame(&buf, &out)
	var got [][]any
	if err == nil {
		got, err = server.DecodeRows(out.Rows)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	rows := make([][]term.Value, len(got))
	for i, r := range got {
		rows[i] = make([]term.Value, len(r))
		for j, v := range r {
			rows[i][j] = v.(term.Value)
		}
	}
	return intRows(rows)
}

// read is session.read for one autocommit query: a fresh snapshot, the
// compiled query, execution, the encoded answer, then the snapshot closed.
func (ts *tracedSession) read(in *server.Request, resp *server.Response, buf *bytes.Buffer, rec *opRecord) error {
	tr := ts.tr
	sp := tr.begin("snapshot.capture")
	snap, err := ts.sys.Snapshot()
	tr.end(sp)
	if err != nil {
		return err
	}
	defer func() {
		sp := tr.begin("snapshot.close")
		snap.Close()
		tr.end(sp)
	}()
	snap.SetParallelism(runtime.GOMAXPROCS(0))

	sp = tr.begin("plan.prepare")
	p, err := ts.sys.PrepareIn("main", in.Goals)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("vm.exec")
	res, err := snap.ExecuteContext(context.Background(), p)
	tr.end(sp)
	if err != nil {
		return err
	}
	rec.rows = len(res.Rows)
	sp = tr.begin("server.resp_encode")
	resp.Vars, resp.Rows, resp.CSN = res.Vars, server.EncodeRows(res.Rows), snap.CSN()
	err = server.WriteFrame(buf, resp)
	tr.end(sp)
	return err
}

// wireRequest is the frame a client sends for req.
func wireRequest(req request) *server.Request {
	if req.kind == opQuery {
		return &server.Request{Op: "query", Goals: req.goals}
	}
	op := "assert"
	if req.kind == opRetract {
		op = "retract"
	}
	rel := server.EncodeValue(gluenail.Str(req.rel))
	rows := make([][]server.WireValue, len(req.rows))
	for i, kv := range req.rows {
		rows[i] = []server.WireValue{server.EncodeValue(gluenail.Int(kv[0])), server.EncodeValue(gluenail.Int(kv[1]))}
	}
	return &server.Request{Op: op, Rel: &rel, Rows: rows}
}

// replay plays the sessions in process, round robin and one op at a time,
// each for exactly counts[s] requests. One op in flight means every file
// span has exactly one op to belong to.
func replay(ts *tracedSession, streams []stream, counts []int) []*sessionLog {
	logs := make([]*sessionLog, len(streams))
	for s := range logs {
		logs[s] = &sessionLog{}
	}
	for busy := true; busy; {
		busy = false
		for s, st := range streams {
			if logs[s].attempted >= counts[s] || logs[s].wrong != nil {
				continue
			}
			busy = true
			logs[s].step(ts.exec, st)
		}
	}
	return logs
}

// writeSpans dumps the spans as one JSON object per line.
func writeSpans(path string, spans []span) error {
	var b bytes.Buffer
	for _, s := range spans {
		fmt.Fprintf(&b, `{"name":%q,"op":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"bytes":%d}`+"\n",
			s.Name, s.Op, s.Parent, s.Start, s.End, s.Bytes)
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
