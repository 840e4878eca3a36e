package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gluenail"
	"gluenail/internal/server"
	"gluenail/internal/term"
)

// instance is one set-up of a workload: the database, an in-process
// gluenaild serving it on loopback, and one client per session.
type instance struct {
	w       *workload
	dir     string // data directory; "" for a main-memory workload
	sys     *gluenail.System
	srv     *server.Server
	served  chan error
	clients []*server.Client
}

// openSystem creates the workload's database in dir (durable workloads)
// with fs as its filesystem when non-nil, and loads its data.
func openSystem(w *workload, dir string, fs gluenail.FS) (*gluenail.System, error) {
	opts := append([]gluenail.Option(nil), w.options...)
	if fs != nil {
		opts = append(opts, gluenail.WithFS(fs))
	}
	var sys *gluenail.System
	if w.durable {
		var err error
		if sys, err = gluenail.Open(dir, opts...); err != nil {
			return nil, err
		}
	} else {
		sys = gluenail.New(opts...)
	}
	if err := sys.Load(w.program); err != nil {
		sys.Close()
		return nil, err
	}
	if err := w.load(sys); err != nil {
		sys.Close()
		return nil, fmt.Errorf("loading %s: %w", w.name, err)
	}
	for _, t := range w.texts {
		if _, err := sys.PrepareIn("main", t); err != nil {
			sys.Close()
			return nil, fmt.Errorf("compiling %q: %w", t, err)
		}
	}
	return sys, nil
}

// start sets the workload up in dir and serves it to nSessions clients.
func start(w *workload, dir string, nSessions int) (*instance, error) {
	in := &instance{w: w, served: make(chan error, 1)}
	if w.durable {
		in.dir = dir
	}
	sys, err := openSystem(w, in.dir, nil)
	if err != nil {
		return nil, err
	}
	in.sys = sys
	if in.srv, err = server.New(server.Config{System: sys}); err != nil {
		in.stop()
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.stop()
		return nil, err
	}
	go func() { in.served <- in.srv.Serve(lis) }()
	for i := 0; i < nSessions; i++ {
		c, err := server.Dial(lis.Addr().String(), 5*time.Second)
		if err != nil {
			in.stop()
			return nil, err
		}
		in.clients = append(in.clients, c)
	}
	return in, nil
}

// stop closes the clients, drains the server and closes the database. It
// leaves the data directory in place for recovery.
func (in *instance) stop() error {
	for _, c := range in.clients {
		c.Close()
	}
	in.clients = nil
	var err error
	if in.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = in.srv.Shutdown(ctx)
		cancel()
		if serr := <-in.served; err == nil {
			err = serr
		}
		in.srv = nil
	}
	if in.sys != nil {
		if cerr := in.sys.Close(); err == nil {
			err = cerr
		}
		in.sys = nil
	}
	return err
}

// setUp starts an instance and serves one verified answer: the first
// request of a fresh session-0 stream. It returns the time that took.
func setUp(w *workload, dir string, nSessions int) (*instance, time.Duration, error) {
	t0 := time.Now()
	in, err := start(w, dir, nSessions)
	if err != nil {
		return nil, 0, err
	}
	probe := w.streams()[0]
	req := probe.next()
	rows, err := clientExec(in.clients[0], req)
	if err == nil {
		err = probe.check(req, rows)
	}
	if err != nil {
		in.stop()
		return nil, 0, fmt.Errorf("set-up probe %q: %w", req.goals, err)
	}
	return in, time.Since(t0), nil
}

// executors returns one executor per session, each on its own client.
func (in *instance) executors() []executor {
	execs := make([]executor, len(in.clients))
	for i, c := range in.clients {
		c := c
		execs[i] = func(r request) ([][]int64, error) { return clientExec(c, r) }
	}
	return execs
}

// clientExec sends one request through a gluenaild client and returns a
// read's answer as ints.
func clientExec(c *server.Client, req request) ([][]int64, error) {
	switch req.kind {
	case opQuery:
		res, err := c.Query(req.goals)
		if err != nil {
			return nil, err
		}
		return intRows(res.Rows)
	case opAssert:
		return nil, c.Assert(req.rel, req.anyRows()...)
	default:
		return nil, c.Retract(req.rel, req.anyRows()...)
	}
}

func (r request) anyRows() [][]any {
	out := make([][]any, len(r.rows))
	for i, kv := range r.rows {
		out[i] = []any{kv[0], kv[1]}
	}
	return out
}

// intRows converts an answer to ints; every value the workloads store is
// an integer, so any other kind is a wrong answer.
func intRows(rows [][]term.Value) ([][]int64, error) {
	out := make([][]int64, len(rows))
	for i, r := range rows {
		out[i] = make([]int64, len(r))
		for j, v := range r {
			if v.Kind() != term.Int {
				return nil, fmt.Errorf("%w: value %v is not an integer", errWrongAnswer, v)
			}
			out[i][j] = v.Int()
		}
	}
	return out, nil
}

var errWrongAnswer = errors.New("wrong answer")

// executor sends one request on one session.
type executor func(request) ([][]int64, error)

// sessionLog is what one session saw: latencies of acknowledged
// statements by kind, failure counts, and a digest of its answers.
type sessionLog struct {
	reads, writes       []time.Duration
	readEnds, writeEnds []time.Time // when each acknowledged statement completed
	attempted           int
	failed              int
	wrong               error
	digest              answerDigest
}

// answerDigest hashes a session's answers in order, so a replay of the
// same requests can be compared answer for answer.
type answerDigest struct{ sum uint64 }

func (d *answerDigest) add(req request, rows [][]int64) {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(d.sum)
	put(uint64(req.kind))
	put(uint64(req.batch))
	h.Write([]byte(req.goals))
	put(uint64(len(rows)))
	for _, r := range rows {
		put(uint64(len(r)))
		for _, v := range r {
			put(uint64(v))
		}
	}
	d.sum = h.Sum64()
}

// drive runs every session as a closed loop, each sending its next
// request only after the previous reply, and a paced session (pace > 0)
// also no sooner than its schedule of one request per pace. It stops a
// session at the deadline, or after limits[s] requests when limits is
// non-nil, or at its first wrong answer.
func drive(execs []executor, streams []stream, pace []time.Duration, deadline time.Time, limits []int) []*sessionLog {
	logs := make([]*sessionLog, len(execs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := range execs {
		logs[s] = &sessionLog{}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if limits != nil && i >= limits[s] {
					return
				}
				if pace != nil && pace[s] > 0 {
					time.Sleep(time.Until(t0.Add(time.Duration(i) * pace[s])))
				}
				if (limits == nil && !time.Now().Before(deadline)) || !logs[s].step(execs[s], streams[s]) {
					return
				}
			}
		}(s)
	}
	wg.Wait()
	return logs
}

// step sends the session's next request and accounts for its outcome. It
// reports false once the session has seen a wrong answer.
func (log *sessionLog) step(exec executor, st stream) bool {
	req := st.next()
	t0 := time.Now()
	rows, err := exec(req)
	d := time.Since(t0)
	log.attempted++
	switch {
	case errors.Is(err, errWrongAnswer):
		log.wrong = fmt.Errorf("%s: %w", req.goals, err)
		return false
	case err != nil:
		log.failed++
		st.done(req, false)
		return true
	case req.write():
		st.done(req, true)
		log.writes = append(log.writes, d)
		log.writeEnds = append(log.writeEnds, t0.Add(d))
	default:
		if err := st.check(req, rows); err != nil {
			log.wrong = err
			return false
		}
		log.reads = append(log.reads, d)
		log.readEnds = append(log.readEnds, t0.Add(d))
	}
	log.digest.add(req, rows)
	return true
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
