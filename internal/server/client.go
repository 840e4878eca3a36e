package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"gluenail"
	"gluenail/internal/term"
)

// ErrConnLost is the typed failure for a dropped server connection: every
// transport-level error (dial, write, read, EOF) surfaces wrapped in it,
// so callers classify with errors.Is instead of matching io.EOF or
// net.OpError by hand. Idempotent reads (hello, query, relation, stats)
// retry through a bounded reconnect first and only report ErrConnLost
// once the retries are exhausted; writes and session-stateful ops never
// retry — the caller must decide whether re-issuing is safe.
var ErrConnLost = errors.New("server: connection lost")

// Reconnect policy: attempts are spaced by an exponential backoff with
// jitter so a restarting server is not hammered in lockstep by every
// client.
const (
	reconnectAttempts = 4
	backoffBase       = 10 * time.Millisecond
	backoffCap        = time.Second
)

// Client is a minimal gluenaild client for tests, benchmarks, and the
// examples: synchronous request/response over one connection. It is not
// safe for concurrent use — open one client per concurrent session,
// exactly as the server models it.
type Client struct {
	conn    net.Conn
	nextID  uint64
	addr    string
	timeout time.Duration
	// noReconnect disables the idempotent-op reconnect loop (tests that
	// assert on first-failure behavior).
	noReconnect bool
}

// QueryResult is a decoded query answer.
type QueryResult struct {
	Vars []string
	Rows [][]term.Value
	// CSN is the snapshot the query executed at.
	CSN uint64
}

// Dial connects to a gluenaild server and performs the hello handshake.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, addr: addr, timeout: timeout}
	if _, err := c.send(&Request{Op: "hello"}); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Close ends the session and closes the connection.
func (c *Client) Close() error {
	_, _ = c.send(&Request{Op: "close"})
	return c.conn.Close()
}

// send performs one request/response exchange on the current connection,
// surfacing wire errors as *WireError, an oversize request as
// unsentError, and transport failures raw.
func (c *Client) send(req *Request) (*Response, error) {
	c.nextID++
	req.ID = c.nextID
	if err := WriteFrame(c.conn, req); err != nil {
		if errors.Is(err, ErrFrameTooLarge) {
			return nil, unsentError{err}
		}
		return nil, err
	}
	var resp Response
	if err := ReadFrame(c.conn, &resp); err != nil {
		return nil, err
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("server: response id %d for request %d", resp.ID, req.ID)
	}
	if !resp.OK {
		if resp.Err == nil {
			return nil, fmt.Errorf("server: failure without error payload")
		}
		return nil, resp.Err
	}
	return &resp, nil
}

// unsentError wraps the ErrFrameTooLarge WriteFrame returns for an
// oversize request. Nothing was written, so the connection is intact and
// in frame sync, and the server never saw the request: it is neither
// retried nor reported as ErrConnLost.
type unsentError struct{ error }

func (e unsentError) Unwrap() error { return e.error }

// settled reports whether err is final for this request without a
// transport failure: the server answered with a failure, or the request
// was refused before any byte left the client.
func settled(err error) bool {
	var we *WireError
	var ue unsentError
	return errors.As(err, &we) || errors.As(err, &ue)
}

// roundTrip is the exchange for non-idempotent operations (writes, loads,
// prepare/execute, begin/end): a transport failure is never retried —
// the request may or may not have been applied server-side, so only the
// caller can decide whether re-issuing is safe — and surfaces as a typed
// ErrConnLost instead of a raw io.EOF or net error.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	resp, err := c.send(req)
	if err != nil && !settled(err) {
		return nil, fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	return resp, err
}

// roundTripIdempotent is the exchange for idempotent reads (hello, query,
// relation, stats): a transport failure triggers a bounded reconnect —
// exponential backoff with jitter, a fresh dial, a new hello handshake —
// and one re-send per attempt. Reconnecting opens a new server session,
// which is sound exactly because these operations carry no session state.
func (c *Client) roundTripIdempotent(req *Request) (*Response, error) {
	resp, err := c.send(req)
	if c.noReconnect {
		return c.finish(resp, err)
	}
	for attempt := 0; err != nil && !settled(err) && attempt < reconnectAttempts; attempt++ {
		time.Sleep(backoff(attempt))
		if derr := c.redial(); derr != nil {
			err = derr
			continue
		}
		resp, err = c.send(req)
	}
	return c.finish(resp, err)
}

// finish types any remaining transport failure as ErrConnLost.
func (c *Client) finish(resp *Response, err error) (*Response, error) {
	if err != nil && !settled(err) {
		return nil, fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	return resp, err
}

// backoff returns the pause before reconnect attempt n: an exponential
// base with up to 50% random jitter, capped at backoffCap.
func backoff(n int) time.Duration {
	d := backoffBase << n
	if d > backoffCap {
		d = backoffCap
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// redial replaces the connection with a fresh dial + hello handshake.
func (c *Client) redial() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return err
	}
	old := c.conn
	c.conn = conn
	if old != nil {
		old.Close()
	}
	if _, err := c.send(&Request{Op: "hello"}); err != nil {
		conn.Close()
		return err
	}
	return nil
}

func decodeResult(resp *Response) (*QueryResult, error) {
	res := &QueryResult{Vars: resp.Vars, CSN: resp.CSN}
	res.Rows = make([][]term.Value, len(resp.Rows))
	for i, row := range resp.Rows {
		r := make([]term.Value, len(row))
		for j, w := range row {
			v, err := DecodeValue(w)
			if err != nil {
				return nil, err
			}
			r[j] = v
		}
		res.Rows[i] = r
	}
	return res, nil
}

// Query evaluates a goal conjunction on a server-side snapshot.
func (c *Client) Query(goals string) (*QueryResult, error) {
	resp, err := c.roundTripIdempotent(&Request{Op: "query", Goals: goals})
	if err != nil {
		return nil, err
	}
	return decodeResult(resp)
}

// Prepare compiles a query server-side under a session-scoped name.
func (c *Client) Prepare(name, goals string) ([]string, error) {
	resp, err := c.roundTrip(&Request{Op: "prepare", Name: name, Goals: goals})
	if err != nil {
		return nil, err
	}
	return resp.Vars, nil
}

// Execute runs a prepared query on a server-side snapshot.
func (c *Client) Execute(name string) (*QueryResult, error) {
	resp, err := c.roundTrip(&Request{Op: "execute", Name: name})
	if err != nil {
		return nil, err
	}
	return decodeResult(resp)
}

// Begin opens a read transaction: every read until End answers from one
// pinned snapshot, regardless of concurrent commits. Returns the
// snapshot's CSN.
func (c *Client) Begin() (uint64, error) {
	resp, err := c.roundTrip(&Request{Op: "begin"})
	if err != nil {
		return 0, err
	}
	return resp.CSN, nil
}

// End closes the read transaction.
func (c *Client) End() error {
	_, err := c.roundTrip(&Request{Op: "end"})
	return err
}

// encodeAnyRows converts Go rows to wire rows via the term conversions.
func encodeAnyRows(rows [][]any) ([][]WireValue, error) {
	out := make([][]WireValue, len(rows))
	for i, row := range rows {
		r := make([]WireValue, len(row))
		for j, v := range row {
			switch v := v.(type) {
			case int:
				r[j] = WireValue{K: "i", I: int64(v)}
			case int64:
				r[j] = WireValue{K: "i", I: v}
			case float64:
				r[j] = EncodeValue(gluenail.Float(v))
			case string:
				r[j] = WireValue{K: "s", S: v}
			case term.Value:
				r[j] = EncodeValue(v)
			default:
				return nil, fmt.Errorf("server: cannot encode %T", v)
			}
		}
		out[i] = r
	}
	return out, nil
}

// Assert inserts EDB facts through the live system.
func (c *Client) Assert(relation string, rows ...[]any) error {
	wr, err := encodeAnyRows(rows)
	if err != nil {
		return err
	}
	rel := WireValue{K: "s", S: relation}
	_, err = c.roundTrip(&Request{Op: "assert", Rel: &rel, Rows: wr})
	return err
}

// Retract deletes EDB facts through the live system.
func (c *Client) Retract(relation string, rows ...[]any) error {
	wr, err := encodeAnyRows(rows)
	if err != nil {
		return err
	}
	rel := WireValue{K: "s", S: relation}
	_, err = c.roundTrip(&Request{Op: "retract", Rel: &rel, Rows: wr})
	return err
}

// Load loads Glue/NAIL! source into the system.
func (c *Client) Load(src string) error {
	_, err := c.roundTrip(&Request{Op: "load", Src: src})
	return err
}

// Relation dumps an EDB relation (sorted) from a snapshot.
func (c *Client) Relation(relation string, arity int) (*QueryResult, error) {
	rel := WireValue{K: "s", S: relation}
	resp, err := c.roundTripIdempotent(&Request{Op: "relation", Rel: &rel, Arity: arity})
	if err != nil {
		return nil, err
	}
	return decodeResult(resp)
}

// Stats fetches server counters and the current CSN.
func (c *Client) Stats() (map[string]int64, uint64, error) {
	resp, err := c.roundTripIdempotent(&Request{Op: "stats"})
	if err != nil {
		return nil, 0, err
	}
	return resp.Counters, resp.CSN, nil
}
