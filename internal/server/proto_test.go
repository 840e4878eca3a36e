package server

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gluenail"
	"gluenail/internal/term"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenCompare checks got against testdata/<name>.golden, rewriting it
// under -update.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden mismatch for %s:\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}

// hexDump renders one frame as "length-hex payload-json" lines so the
// golden file is both byte-exact and reviewable.
func hexDump(frame []byte) string {
	return fmt.Sprintf("%s %s\n", hex.EncodeToString(frame[:4]), frame[4:])
}

// TestFramingGolden locks the wire representation of representative
// requests and responses: the 4-byte big-endian length prefix and the
// exact JSON payload.
func TestFramingGolden(t *testing.T) {
	comp := EncodeValue(term.Atom("students", term.Intern("cs99")))
	msgs := []any{
		&Request{Op: "hello", ID: 1},
		&Request{Op: "query", ID: 2, Goals: "tc(1,X)"},
		&Request{Op: "prepare", ID: 3, Name: "q1", Goals: "tc(X,Y)", Module: "main"},
		&Request{Op: "execute", ID: 4, Name: "q1"},
		&Request{Op: "begin", ID: 5},
		&Request{Op: "end", ID: 6},
		&Request{Op: "assert", ID: 7,
			Rel:  &WireValue{K: "s", S: "edge"},
			Rows: [][]WireValue{{{K: "i", I: 1}, {K: "i", I: 2}}}},
		&Request{Op: "retract", ID: 8,
			Rel:  &WireValue{K: "s", S: "edge"},
			Rows: [][]WireValue{{{K: "i", I: 1}, {K: "i", I: 2}}}},
		&Request{Op: "relation", ID: 9, Rel: &comp, Arity: 2},
		&Request{Op: "load", ID: 10, Src: "edb p(X);"},
		&Request{Op: "stats", ID: 11},
		&Request{Op: "close", ID: 12},
		&Response{ID: 2, OK: true, Vars: []string{"X"},
			Rows: [][]WireValue{{{K: "i", I: 2}}, {{K: "i", I: 3}}}, CSN: 7},
		&Response{ID: 4, Err: &WireError{Code: CodeTimeout,
			Message: "execution deadline exceeded", Proc: "main.$query1", Stmt: "s1"}},
	}
	var sb strings.Builder
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
		sb.WriteString(hexDump(buf.Bytes()))
	}
	goldenCompare(t, "frames", sb.String())
}

// TestFrameRoundTrip: WriteFrame output reads back identically, and the
// length prefix matches the payload.
func TestFrameRoundTrip(t *testing.T) {
	req := &Request{Op: "query", ID: 42, Goals: "tc(1,X)"}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, req); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if n := binary.BigEndian.Uint32(raw[:4]); int(n) != len(raw)-4 {
		t.Fatalf("length prefix %d, payload %d", n, len(raw)-4)
	}
	var got Request
	if err := ReadFrame(bytes.NewReader(raw), &got); err != nil {
		t.Fatal(err)
	}
	if got.Op != req.Op || got.ID != req.ID || got.Goals != req.Goals {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestFrameTooLarge: an announced length beyond MaxFrame is rejected
// without allocating it.
func TestFrameTooLarge(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var v any
	if err := ReadFrame(bytes.NewReader(hdr[:]), &v); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
}

// TestErrorMappingGolden locks the wire code for every GovernorError
// sentinel plus the plain-error fallback.
func TestErrorMappingGolden(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"canceled", &gluenail.GovernorError{Limit: gluenail.ErrCanceled, Proc: "main.p", Stmt: "s2"}},
		{"timeout", &gluenail.GovernorError{Limit: gluenail.ErrTimeout, Proc: "main.p"}},
		{"memory_budget", &gluenail.GovernorError{Limit: gluenail.ErrMemoryBudget, Detail: "10000 tuples > budget 100"}},
		{"depth_limit", &gluenail.GovernorError{Limit: gluenail.ErrDepthLimit}},
		{"loop_limit", &gluenail.GovernorError{Limit: gluenail.ErrLoopLimit, Stmt: "repeat@3"}},
		{"panic", &gluenail.GovernorError{Limit: gluenail.ErrPanic, Detail: "index out of range"}},
		{"poisoned", &gluenail.GovernorError{Limit: gluenail.ErrPoisoned}},
		{"plain", errors.New("no procedure main.nope")},
	}
	var sb strings.Builder
	for _, c := range cases {
		we := ToWireError(c.err)
		fmt.Fprintf(&sb, "%s: code=%s proc=%q stmt=%q message=%q\n",
			c.name, we.Code, we.Proc, we.Stmt, we.Message)
	}
	goldenCompare(t, "errors", sb.String())
}

// TestWireValueRoundTrip covers every kind, including float bit patterns
// JSON numbers cannot carry.
func TestWireValueRoundTrip(t *testing.T) {
	vals := []term.Value{
		term.NewInt(0),
		term.NewInt(-9007199254740993), // beyond float53: JSON numbers would mangle it
		term.NewFloat(3.14159),
		term.NewFloat(math.NaN()),
		term.NewFloat(math.Inf(1)),
		term.NewFloat(math.Inf(-1)),
		term.NewFloat(math.Copysign(0, -1)),
		term.Intern("hello world"),
		term.Intern(""),
		term.Atom("students", term.Intern("cs99")),
		term.NewCompound(term.Atom("f", term.NewInt(1)), term.NewInt(2)), // compound functor
	}
	for _, v := range vals {
		w := EncodeValue(v)
		got, err := DecodeValue(w)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		// NaN != NaN, so compare the canonical renderings.
		if got.String() != v.String() {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

// TestWireValueBadInput: malformed wire values fail cleanly.
func TestWireValueBadInput(t *testing.T) {
	for _, w := range []WireValue{
		{K: "x"},
		{K: "f", F: "not-a-float"},
		{K: "c"}, // compound without functor
	} {
		if _, err := DecodeValue(w); err == nil {
			t.Fatalf("decoded invalid %+v", w)
		}
	}
}
