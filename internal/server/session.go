package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"

	"gluenail"
)

// Version identifies the protocol revision in the hello response.
const Version = "1"

// session is one client connection: a request/response loop with
// session-scoped state — an optional pinned snapshot (read transaction)
// and named prepared queries. One goroutine per session; statements from
// one session execute sequentially, statements from different sessions
// concurrently.
type session struct {
	srv  *Server
	conn net.Conn
	id   uint64
	// snap pins a snapshot between begin and end; outside a transaction
	// every read takes (and drops) a fresh snapshot, so autocommit reads
	// always see the latest committed state.
	snap     *gluenail.Snapshot
	prepared map[string]*gluenail.Prepared
	budget   gluenail.Budget
	// finish ends the admitted statement of the request being served. It
	// runs after the reply is written, so a graceful drain, which waits
	// for statements and then severs connections, never severs one
	// between a statement's completion and its reply.
	finish func()
}

func newSession(s *Server, conn net.Conn, id uint64) *session {
	return &session{
		srv:      s,
		conn:     conn,
		id:       id,
		prepared: make(map[string]*gluenail.Prepared),
		budget:   s.cfg.SessionBudget,
	}
}

// serve runs the request loop until the peer disconnects, sends close,
// or the server severs the connection during shutdown.
func (c *session) serve() {
	defer func() {
		if c.snap != nil {
			c.snap.Close()
			c.snap = nil
		}
	}()
	for {
		var req Request
		if err := ReadFrame(c.conn, &req); err != nil {
			return // disconnect, shutdown, or a framing error: drop the session
		}
		resp := c.dispatch(&req)
		resp.ID = req.ID
		if !resp.OK {
			c.srv.totals.errors.Add(1)
		}
		err := WriteFrame(c.conn, resp)
		if errors.Is(err, ErrFrameTooLarge) {
			// Nothing was written, so the stream is still in frame sync:
			// answer with a typed error and keep the session, instead of
			// dropping it and inviting the client to re-execute.
			c.srv.totals.errors.Add(1)
			err = WriteFrame(c.conn, &Response{ID: req.ID, Err: &WireError{
				Code: CodeResultTooLarge, Message: err.Error()}})
		}
		if c.finish != nil {
			c.finish()
			c.finish = nil
		}
		if err != nil {
			return
		}
		if req.Op == "close" {
			return
		}
	}
}

// dispatch executes one request and shapes its response.
func (c *session) dispatch(req *Request) *Response {
	switch req.Op {
	case "hello":
		return &Response{OK: true, Server: "gluenaild", CSN: c.srv.cfg.System.CSN(),
			Info: map[string]string{
				"version":  Version,
				"session":  strconv.FormatUint(c.id, 10),
				"workers":  strconv.Itoa(c.srv.cfg.Workers),
				"max_stmt": strconv.Itoa(c.srv.cfg.MaxStatements),
			}}
	case "query":
		if req.Goals == "" {
			return badRequest("query requires goals")
		}
		return c.read(func(ctx context.Context, snap *gluenail.Snapshot) (*gluenail.Result, error) {
			return snap.QueryInContext(ctx, moduleOf(req), req.Goals)
		})
	case "prepare":
		if req.Name == "" || req.Goals == "" {
			return badRequest("prepare requires name and goals")
		}
		p, err := c.srv.cfg.System.PrepareIn(moduleOf(req), req.Goals)
		if err != nil {
			return fail(err)
		}
		c.prepared[req.Name] = p
		return &Response{OK: true, Vars: p.Vars()}
	case "execute":
		p := c.prepared[req.Name]
		if p == nil {
			return badRequest(fmt.Sprintf("no prepared query %q", req.Name))
		}
		return c.read(func(ctx context.Context, snap *gluenail.Snapshot) (*gluenail.Result, error) {
			return snap.ExecuteContext(ctx, p)
		})
	case "begin":
		if c.snap != nil {
			return badRequest("transaction already open")
		}
		snap, err := c.openSnapshot()
		if err != nil {
			return fail(err)
		}
		c.snap = snap
		return &Response{OK: true, CSN: snap.CSN()}
	case "end":
		if c.snap == nil {
			return badRequest("no open transaction")
		}
		c.snap.Close()
		c.snap = nil
		return &Response{OK: true}
	case "assert", "retract":
		return c.write(req)
	case "load":
		if c.snap != nil {
			return readOnlyTxn()
		}
		if req.Src == "" {
			return badRequest("load requires src")
		}
		ctx, done, werr := c.srv.beginStatement(context.Background())
		if werr != nil {
			return &Response{Err: werr}
		}
		c.finish = done
		c.srv.totals.writes.Add(1)
		if err := c.srv.cfg.System.LoadContext(ctx, req.Src); err != nil {
			return fail(err)
		}
		return &Response{OK: true}
	case "relation":
		if req.Rel == nil {
			return badRequest("relation requires rel")
		}
		name, err := DecodeValue(*req.Rel)
		if err != nil {
			return fail(err)
		}
		// A pinned snapshot answers from its capture; otherwise a fresh
		// snapshot gives the latest committed state.
		snap := c.snap
		if snap == nil {
			var err error
			snap, err = c.openSnapshot()
			if err != nil {
				return fail(err)
			}
			defer snap.Close()
		}
		rows, err := snap.Relation(name, req.Arity)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Rows: EncodeRows(rows), CSN: snap.CSN()}
	case "stats":
		cs := c.srv.cfg.System.PlanCacheStats()
		return &Response{OK: true, CSN: c.srv.cfg.System.CSN(), Counters: map[string]int64{
			"statements":       c.srv.totals.statements.Load(),
			"reads":            c.srv.totals.reads.Load(),
			"writes":           c.srv.totals.writes.Load(),
			"errors":           c.srv.totals.errors.Load(),
			"sessions":         c.srv.totals.sessions.Load(),
			"active":           c.srv.active.Load(),
			"plan_hits":        cs.Hits,
			"plan_misses":      cs.Misses,
			"plan_invalidated": cs.Invalidations,
		}}
	case "close":
		return &Response{OK: true}
	default:
		return badRequest(fmt.Sprintf("unknown op %q", req.Op))
	}
}

// read executes one read statement on the session's pinned snapshot (in
// a transaction) or a fresh one (autocommit), under admission control,
// the session budget, and the fair worker share.
func (c *session) read(run func(context.Context, *gluenail.Snapshot) (*gluenail.Result, error)) *Response {
	ctx, done, werr := c.srv.beginStatement(context.Background())
	if werr != nil {
		return &Response{Err: werr}
	}
	c.finish = done
	c.srv.totals.reads.Add(1)

	snap := c.snap
	if snap == nil {
		var err error
		snap, err = c.openSnapshot()
		if err != nil {
			return fail(err)
		}
		defer snap.Close()
	}
	snap.SetParallelism(c.srv.fairShare())
	res, err := run(ctx, snap)
	if err != nil {
		return fail(err)
	}
	return &Response{OK: true, Vars: res.Vars, Rows: EncodeRows(res.Rows), CSN: snap.CSN()}
}

// write executes an assert or retract on the live system under admission
// control. Writes inside a read transaction are rejected: the pinned
// snapshot could never see them, which is a confusion no one wants.
func (c *session) write(req *Request) *Response {
	if c.snap != nil {
		return readOnlyTxn()
	}
	if req.Rel == nil {
		return badRequest(req.Op + " requires rel")
	}
	name, err := DecodeValue(*req.Rel)
	if err != nil {
		return fail(err)
	}
	rows, err := DecodeRows(req.Rows)
	if err != nil {
		return fail(err)
	}
	_, done, werr := c.srv.beginStatement(context.Background())
	if werr != nil {
		return &Response{Err: werr}
	}
	c.finish = done
	c.srv.totals.writes.Add(1)
	sys := c.srv.cfg.System
	if req.Op == "assert" {
		err = sys.Assert(name, rows...)
	} else {
		err = sys.Retract(name, rows...)
	}
	if err != nil {
		return fail(err)
	}
	return &Response{OK: true, CSN: sys.CSN()}
}

// openSnapshot captures a snapshot configured with the session budget.
func (c *session) openSnapshot() (*gluenail.Snapshot, error) {
	snap, err := c.srv.cfg.System.Snapshot()
	if err != nil {
		return nil, err
	}
	if c.budget != (gluenail.Budget{}) {
		snap.SetBudget(c.budget)
	}
	return snap, nil
}

func moduleOf(req *Request) string {
	if req.Module != "" {
		return req.Module
	}
	return "main"
}

func badRequest(msg string) *Response {
	return &Response{Err: &WireError{Code: CodeBadRequest, Message: msg}}
}

func readOnlyTxn() *Response {
	return &Response{Err: &WireError{Code: CodeReadOnlyTxn, Message: "writes are not allowed inside a read transaction"}}
}

func fail(err error) *Response {
	return &Response{Err: ToWireError(err)}
}
