package plan

import (
	"strings"
	"testing"

	"gluenail/internal/ast"
	"gluenail/internal/modsys"
	"gluenail/internal/parser"
)

func compileSrc(t *testing.T, src string, opts Options) *Compiler {
	t.Helper()
	c, err := tryCompile(src, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func tryCompile(src string, opts Options) (*Compiler, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	lp, err := modsys.LinkWith(prog, modsys.Options{Known: func(name string) bool {
		if opts.Builtin == nil {
			return false
		}
		_, ok := opts.Builtin(name)
		return ok
	}})
	if err != nil {
		return nil, err
	}
	c := NewCompiler(lp, opts)
	if err := c.CompileAll(); err != nil {
		return nil, err
	}
	return c, nil
}

func stdBuiltins(name string) (BuiltinSig, bool) {
	switch name {
	case "write":
		return BuiltinSig{Variadic: true, Fixed: true}, true
	case "pure_fn":
		return BuiltinSig{Bound: 1, Free: 1}, true
	}
	return BuiltinSig{}, false
}

func onlyStmt(t *testing.T, c *Compiler, id string) *Stmt {
	t.Helper()
	p := c.Program().Procs[id]
	if p == nil {
		t.Fatalf("no proc %s; have %v", id, procIDs(c))
	}
	for _, in := range p.Body {
		if ex, ok := in.(*ExecStmt); ok {
			return ex.S
		}
	}
	t.Fatalf("proc %s has no statements", id)
	return nil
}

func procIDs(c *Compiler) []string {
	var ids []string
	for id := range c.Program().Procs {
		ids = append(ids, id)
	}
	return ids
}

func TestSimpleJoinIsOnePipeSegment(t *testing.T) {
	c := compileSrc(t, `
edb a(X,Y), b(Y,Z), r(X,Z);
proc go(:)
  r(X,Z) := a(X,Y) & b(Y,Z).
  return(:) := r(_,_).
end
`, Options{})
	st := onlyStmt(t, c, "main.go")
	if len(st.Steps) != 1 {
		t.Fatalf("join should compile to one segment, got %d", len(st.Steps))
	}
	if len(st.Steps[0].Pipe) != 2 {
		t.Errorf("pipe ops = %d, want 2", len(st.Steps[0].Pipe))
	}
	if st.Steps[0].Barrier != nil {
		t.Error("final step should have nil barrier")
	}
	if !st.Steps[0].Dedup {
		t.Error("dedup should be on by default at the final break")
	}
}

func TestAggregatorForcesBreakAndNoDedup(t *testing.T) {
	c := compileSrc(t, `
edb temp(T), out(M);
proc go(:)
  out(M) := temp(T) & M = max(T).
  return(:) := out(_).
end
`, Options{})
	st := onlyStmt(t, c, "main.go")
	if len(st.Steps) != 2 {
		t.Fatalf("aggregator should break the pipeline: %d steps", len(st.Steps))
	}
	if _, ok := st.Steps[0].Barrier.(*Aggregate); !ok {
		t.Errorf("step 0 barrier = %T", st.Steps[0].Barrier)
	}
	if st.Steps[0].Dedup {
		t.Error("dedup before an aggregator is illegal (duplicates are meaningful)")
	}
	if !st.HasAgg {
		t.Error("HasAgg should be set")
	}
}

func TestProcCallIsBarrier(t *testing.T) {
	c := compileSrc(t, `
edb e(X,Y), out(X,Y);
proc helper(X:Y)
  return(X:Y) := e(X,Y).
end
proc go(:)
  out(X,Y) := e(X,_) & helper(X,Y).
  return(:) := out(_,_).
end
`, Options{})
	st := onlyStmt(t, c, "main.go")
	if len(st.Steps) != 2 {
		t.Fatalf("proc call should break the pipeline: %d steps", len(st.Steps))
	}
	call, ok := st.Steps[0].Barrier.(*Call)
	if !ok {
		t.Fatalf("barrier = %T", st.Steps[0].Barrier)
	}
	if call.ProcID != "main.helper" || len(call.BoundArgs) != 1 || len(call.FreeArgs) != 1 {
		t.Errorf("call = %+v", call)
	}
}

func TestReorderingMovesFilterEarly(t *testing.T) {
	// With reordering, the bound-argument lookup b(X,1) and the comparison
	// run before the unbound scan of c.
	src := `
edb a(X), b(X,Y), c(Z), r(X,Z);
proc go(:)
  r(X,Z) := a(X) & c(Z) & b(X,1) & X != Z.
  return(:) := r(_,_).
end
`
	c := compileSrc(t, src, Options{})
	st := onlyStmt(t, c, "main.go")
	pipe := st.Steps[0].Pipe
	// Expected greedy order: a(X) scan first (all scores equal at start,
	// original order tie-break), then b(X,1) (bound arg), then... the
	// comparison needs Z, so c(Z) then X != Z.
	names := pipeShape(pipe)
	// Greedy order: b(X,1) first (a ground argument makes it the most
	// selective), which binds X; then a(X); then c(Z); the comparison runs
	// as soon as Z is bound.
	want := []string{"match:b", "match:a", "match:c", "cmp"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("pipe order = %v, want %v", names, want)
	}
	// Without reordering the textual order is kept.
	c2 := compileSrc(t, src, Options{NoReorder: true})
	st2 := onlyStmt(t, c2, "main.go")
	names2 := pipeShape(st2.Steps[0].Pipe)
	want2 := []string{"match:a", "match:c", "match:b", "cmp"}
	if strings.Join(names2, ",") != strings.Join(want2, ",") {
		t.Errorf("unordered pipe = %v, want %v", names2, want2)
	}
}

func pipeShape(ops []PipeOp) []string {
	var out []string
	for _, op := range ops {
		switch op := op.(type) {
		case *Match:
			out = append(out, "match:"+op.Rel.Name.Val.Str())
		case *DynMatch:
			out = append(out, "dyn")
		case *Compare:
			out = append(out, "cmp")
		case *MatchBind:
			out = append(out, "bind")
		}
	}
	return out
}

func TestNailCallAdornment(t *testing.T) {
	src := `
edb e(X,Y), out(Y);
tc(X,Y) :- e(X,Y).
tc(X,Z) :- tc(X,Y) & e(Y,Z).
proc go(:)
  out(Y) := tc(1, Y).
  return(:) := out(_).
end
`
	c := compileSrc(t, src, Options{})
	st := onlyStmt(t, c, "main.go")
	call := st.Steps[0].Barrier.(*Call)
	if call.ProcID != "main.tc@bf" {
		t.Errorf("adorned call = %q, want main.tc@bf", call.ProcID)
	}
	if _, ok := c.Program().Procs["main.tc@bf"]; !ok {
		t.Error("generated proc main.tc@bf missing")
	}
	// With magic disabled, the call falls back to the all-free variant.
	c2 := compileSrc(t, src, Options{NoMagic: true})
	st2 := onlyStmt(t, c2, "main.go")
	call2 := st2.Steps[0].Barrier.(*Call)
	if call2.ProcID != "main.tc@ff" {
		t.Errorf("no-magic call = %q, want main.tc@ff", call2.ProcID)
	}
	if len(call2.BoundArgs) != 0 || len(call2.FreeArgs) != 2 {
		t.Errorf("no-magic arg split = %d:%d", len(call2.BoundArgs), len(call2.FreeArgs))
	}
}

func TestFixednessPropagation(t *testing.T) {
	c := compileSrc(t, `
edb log(X), data(X), out(X);
proc noisy(X:)
  log(X) += in(X) & write(X).
  return(X:) := in(X).
end
proc caller(:)
  out(X) := data(X) & noisy(X).
  return(:) := out(_).
end
proc quiet(X:Y)
  return(X:Y) := data(Y) & in(X).
end
`, Options{Builtin: stdBuiltins})
	prog := c.Program()
	if !prog.Procs["main.noisy"].Fixed {
		t.Error("noisy writes and updates EDB: should be fixed")
	}
	if !prog.Procs["main.caller"].Fixed {
		t.Error("caller assigns EDB and calls fixed proc: should be fixed")
	}
	if prog.Procs["main.quiet"].Fixed {
		t.Error("quiet is pure: should not be fixed")
	}
}

func TestDynamicDispatchNarrowing(t *testing.T) {
	src := `
edb holder(S), s1(X), s2(X), other(X,Y), out(X);
proc go(:)
  out(X) := holder(S) & S(X).
  return(:) := out(_).
end
`
	c := compileSrc(t, src, Options{})
	st := onlyStmt(t, c, "main.go")
	var dyn *DynMatch
	for _, op := range st.Steps[0].Pipe {
		if d, ok := op.(*DynMatch); ok {
			dyn = d
		}
	}
	if dyn == nil {
		t.Fatal("no DynMatch op")
	}
	if !dyn.Narrowed {
		t.Error("narrowing should be on by default")
	}
	// Candidates: arity-1 relations (holder, s1, s2, out) but not other/2.
	for _, want := range []string{"holder", "s1", "s2", "out"} {
		if !dyn.Candidates[want] {
			t.Errorf("candidate %s missing: %v", want, dyn.Candidates)
		}
	}
	if dyn.Candidates["other"] {
		t.Error("other/2 should not be an arity-1 candidate")
	}
	c2 := compileSrc(t, src, Options{NoNarrow: true})
	st2 := onlyStmt(t, c2, "main.go")
	for _, op := range st2.Steps[0].Pipe {
		if d, ok := op.(*DynMatch); ok && d.Narrowed {
			t.Error("NoNarrow should disable narrowing")
		}
	}
}

func TestFamilyDispatchUsesDynCall(t *testing.T) {
	c := compileSrc(t, `
edb attends(N, ID), holder(S), out(X);
students(ID)(N) :- attends(N, ID).
proc go(:)
  out(X) := holder(S) & S(X).
  return(:) := out(_).
end
`, Options{})
	st := onlyStmt(t, c, "main.go")
	found := false
	for _, step := range st.Steps {
		if dc, ok := step.Barrier.(*DynCall); ok {
			found = true
			if len(dc.Families) != 1 || dc.Families[0].Base != "students" {
				t.Errorf("families = %+v", dc.Families)
			}
		}
	}
	if !found {
		t.Error("family candidates should compile to DynCall")
	}
	if _, ok := c.Program().Procs["main.students@ff"]; !ok {
		t.Errorf("family proc missing: %v", procIDs(c))
	}
}

func TestModifyKeyMask(t *testing.T) {
	c := compileSrc(t, `
edb acc(Id, Bal), delta(Id, D);
proc go(:)
  acc(Id, B2) +=[Id] acc(Id, B) & delta(Id, D) & B2 = B + D.
  return(:) := acc(_,_).
end
`, Options{})
	st := onlyStmt(t, c, "main.go")
	if st.Op != ast.OpModify || st.KeyMask != 0b01 {
		t.Errorf("op=%v mask=%b", st.Op, st.KeyMask)
	}
}

func TestCompileQueryVars(t *testing.T) {
	c := compileSrc(t, `edb e(X,Y);`, Options{})
	goals, err := parser.ParseGoals("e(X, Y) & X != Y")
	if err != nil {
		t.Fatal(err)
	}
	id, vars, err := c.CompileQuery("main", goals, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 2 || vars[0] != "X" || vars[1] != "Y" {
		t.Errorf("vars = %v", vars)
	}
	if _, ok := c.Program().Procs[id]; !ok {
		t.Error("query proc missing")
	}
	if _, _, err := c.CompileQuery("zzz", goals, 0); err == nil {
		t.Error("unknown module should fail")
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`edb e(X);
proc p(:)
  out(Y) := e(X) & Y < X.
  return(:) := out(_).
end
edb out(Y);`, "unbound"},
		{`module m;
edb e(X), out(X);
proc p(:)
  out(X) := e(X) & !missing(X).
  return(:) := out(_).
end
end`, "unknown predicate"},
		{`edb e(X);
proc p(:)
  e(X) := e(Y) & X = Y + Z.
  return(:) := e(_).
end`, "unbound"},
		{`edb e(X,Y);
proc p(:)
  e(X,_) := e(X,Y).
  return(:) := e(_,_).
end`, "anonymous"},
		{`edb e(X);
tcp(X) :- e(X).
proc p(:)
  tcp(X) := e(X).
  return(:) := e(_).
end`, "cannot assign"},
		{`edb e(X);
proc p(:)
  in(X) := e(X).
  return(:) := e(_).
end`, "cannot assign"},
		{`edb e(X);
proc p(:)
  out(X) := return(X).
  return(:) := e(_).
end
edb out(X);`, "cannot be read"},
		{`edb e(X,Y);
proc p(:)
  e(X,Y) +=[Z] e(X,Y).
  return(:) := e(_,_).
end`, "key variable"},
		{`edb e(X);
proc p(X,Y:)
  return(X:) := e(X).
end`, "does not match"},
		{`edb e(X);
proc p(:)
  out(S) := e(S) & !S(X).
  return(:) := out(_).
end
edb out(X);`, "not bound"},
	}
	for _, cse := range cases {
		_, err := tryCompile(cse.src, Options{})
		if err == nil {
			t.Errorf("compile should fail for:\n%s", cse.src)
			continue
		}
		if !strings.Contains(err.Error(), cse.want) {
			t.Errorf("error %q should contain %q", err, cse.want)
		}
	}
}

func TestVariadicBuiltinArity(t *testing.T) {
	c := compileSrc(t, `
edb e(X), out(X);
proc p(:)
  out(X) := e(X) & write(X, X, X).
  return(:) := out(_).
end
`, Options{Builtin: stdBuiltins})
	st := onlyStmt(t, c, "main.p")
	call, ok := st.Steps[0].Barrier.(*Call)
	if !ok || call.Builtin != "write" || len(call.BoundArgs) != 3 {
		t.Errorf("write call = %+v", st.Steps[0].Barrier)
	}
}

func TestGroundCompoundNameIsEDBRef(t *testing.T) {
	// A ground compound name with no matching family reads a stored HiLog
	// set relation.
	c := compileSrc(t, `
edb out(X);
proc p(:)
  out(X) := myset(a)(X).
  return(:) := out(_).
end
`, Options{})
	st := onlyStmt(t, c, "main.p")
	m, ok := st.Steps[0].Pipe[0].(*Match)
	if !ok {
		t.Fatalf("op = %T", st.Steps[0].Pipe[0])
	}
	if m.Rel.Space != SpaceEDB || !m.Rel.Name.IsGround() {
		t.Errorf("rel = %+v", m.Rel)
	}
}
