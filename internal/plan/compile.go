package plan

import (
	"fmt"
	"strconv"
	"strings"

	"gluenail/internal/ast"
	"gluenail/internal/modsys"
	"gluenail/internal/nail"
	"gluenail/internal/term"
)

// Error is a compile-time error with source context.
type Error struct {
	Module string
	Pos    ast.Pos
	Msg    string
}

func (e *Error) Error() string {
	return fmt.Sprintf("module %s: %d:%d: %s", e.Module, e.Pos.Line, e.Pos.Col, e.Msg)
}

// Compiler compiles a linked program into executable plans. NAIL!
// predicates are compiled to Glue procedures on demand, per binding pattern
// (adornment), with magic-set rewriting when the pattern has bound
// arguments.
type Compiler struct {
	lp     *modsys.Program
	opts   Options
	prog   *Program
	fixed  map[string]bool // "module.proc" -> fixed
	inFly  map[string]bool // NAIL! procs being generated (cycle detection)
	queryN int
}

// NewCompiler returns a compiler over the linked program.
func NewCompiler(lp *modsys.Program, opts Options) *Compiler {
	return &Compiler{
		lp:    lp,
		opts:  opts,
		prog:  &Program{Procs: make(map[string]*Proc)},
		fixed: make(map[string]bool),
		inFly: make(map[string]bool),
	}
}

// Program returns the compiled program (grows as queries are compiled).
func (c *Compiler) Program() *Program { return c.prog }

// CompileAll compiles every procedure of every module.
func (c *Compiler) CompileAll() error {
	c.computeFixedness()
	for _, modName := range c.lp.Order {
		lm := c.lp.Modules[modName]
		for _, proc := range lm.AST.Procs {
			if _, err := c.compileProc(modName, proc, ""); err != nil {
				return err
			}
		}
	}
	return nil
}

// CompileQuery compiles a goal conjunction as a transient procedure in the
// given module's scope. Its first nparams bound parameters are the
// variables LiftConstants put in place of constants, fed through in, so
// every conjunction of one shape shares the procedure. It returns the
// procedure ID and the answer-variable names in first-occurrence order;
// answer tuples carry the parameters first.
func (c *Compiler) CompileQuery(module string, goals []ast.Goal, nparams int) (string, []string, error) {
	if c.lp.Modules[module] == nil {
		return "", nil, fmt.Errorf("plan: unknown module %q", module)
	}
	var params, vars []string
	for i := 0; i < nparams; i++ {
		params = append(params, paramVar(i))
	}
	for _, v := range goalVars(goals) {
		if !strings.HasPrefix(v, "$") {
			vars = append(vars, v)
		}
	}
	c.queryN++
	name := fmt.Sprintf("$query%d", c.queryN)
	proc := &ast.Proc{Name: name, BoundParams: params, FreeParams: vars}
	head := &ast.AtomTerm{Pred: constStr("return")}
	for _, names := range [][]string{params, vars} {
		for _, v := range names {
			head.Args = append(head.Args, &ast.VarTerm{Name: v})
		}
	}
	proc.Body = []ast.Stmt{&ast.Assign{
		Op: ast.OpAssign, Head: head, IsReturn: true, HeadBound: nparams, Body: goals,
	}}
	id, err := c.compileProc(module, proc, "")
	return id, vars, err
}

// paramVar names the i-th lifted-constant parameter. Source variables
// cannot start with '$', so the names never collide with the query's own.
func paramVar(i int) string { return "$" + strconv.Itoa(i) }

// LiftConstants rewrites a query conjunction into its shape: each
// top-level constant argument of an atom goal that names a module
// predicate (EDB relation, Glue procedure or NAIL! predicate) becomes a
// fresh parameter variable, and the constants come back, in order, as the
// parameters' values. Conjunctions that differ only in those constants
// have the same shape. Builtin calls, update subgoals, compound-term
// contents, predicate names, comparisons and aggregates stay literal. A
// conjunction with a HiLog predicate variable is returned unchanged: its
// dispatch would see the parameters' in relation as a candidate.
// CompileQuery(module, shape, len(vals)) called with the input tuple vals
// answers exactly the original conjunction.
func (c *Compiler) LiftConstants(module string, goals []ast.Goal) (shape []ast.Goal, vals term.Tuple) {
	if c.lp.Modules[module] == nil {
		return goals, nil
	}
	for _, g := range goals {
		if ag, ok := g.(*ast.AtomGoal); ok {
			switch pred := ag.Atom.Pred.(type) {
			case *ast.Const:
				if pred.Val.Kind() == term.Str && pred.Val.Str() == "in" {
					return goals, nil // the query reads its own (empty) in
				}
			case *ast.CompTerm:
				if _, ground := astGroundValue(pred); !ground {
					return goals, nil
				}
			default:
				return goals, nil
			}
		}
	}
	shape = make([]ast.Goal, len(goals))
	for i, g := range goals {
		shape[i] = g
		ag, ok := g.(*ast.AtomGoal)
		if !ok || ag.Update != ast.UpdateNone {
			continue
		}
		if pred, isName := ag.Atom.Pred.(*ast.Const); isName &&
			(pred.Val.Kind() != term.Str || c.lp.Resolve(module, pred.Val.Str()) == nil) {
			continue // a builtin (or an unknown name, which compiling reports)
		}
		var args []ast.Term
		for j, a := range ag.Atom.Args {
			k, isConst := a.(*ast.Const)
			if !isConst {
				continue
			}
			if args == nil {
				args = append([]ast.Term(nil), ag.Atom.Args...)
			}
			args[j] = &ast.VarTerm{Name: paramVar(len(vals)), Pos: k.Pos}
			vals = append(vals, k.Val)
		}
		if args != nil {
			lifted := *ag
			lifted.Atom = &ast.AtomTerm{Pred: ag.Atom.Pred, Args: args, Pos: ag.Atom.Pos}
			shape[i] = &lifted
		}
	}
	return shape, vals
}

// goalVars returns named variables in first-occurrence order.
func goalVars(goals []ast.Goal) []string {
	var order []string
	seen := map[string]bool{}
	add := func(name string) {
		if name == "" || name == "_" || seen[name] {
			return
		}
		seen[name] = true
		order = append(order, name)
	}
	var walkTerm func(t ast.Term)
	walkTerm = func(t ast.Term) {
		switch t := t.(type) {
		case *ast.VarTerm:
			add(t.Name)
		case *ast.CompTerm:
			walkTerm(t.Fn)
			for _, a := range t.Args {
				walkTerm(a)
			}
		}
	}
	var walkExpr func(e ast.Expr)
	walkExpr = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.TermExpr:
			walkTerm(e.T)
		case *ast.BinExpr:
			walkExpr(e.L)
			walkExpr(e.R)
		case *ast.NegExpr:
			walkExpr(e.X)
		case *ast.CallExpr:
			for _, a := range e.Args {
				walkExpr(a)
			}
		}
	}
	for _, g := range goals {
		switch g := g.(type) {
		case *ast.AtomGoal:
			walkTerm(g.Atom.Pred)
			for _, a := range g.Atom.Args {
				walkTerm(a)
			}
		case *ast.CmpGoal:
			walkExpr(g.L)
			walkExpr(g.R)
		case *ast.AggGoal:
			walkTerm(g.Arg)
			add(g.Var)
		case *ast.GroupByGoal:
			for _, v := range g.Vars {
				add(v)
			}
		}
	}
	return order
}

func constStr(s string) *ast.Const {
	return &ast.Const{Val: term.Intern(s)}
}

// computeFixedness runs the call-graph fixpoint of §3.1: a procedure is
// fixed if it performs I/O, updates a non-local relation, contains an
// update subgoal, or calls a fixed procedure.
func (c *Compiler) computeFixedness() {
	type procInfo struct {
		module string
		proc   *ast.Proc
	}
	var all []procInfo
	for _, modName := range c.lp.Order {
		for _, p := range c.lp.Modules[modName].AST.Procs {
			all = append(all, procInfo{modName, p})
		}
	}
	changed := true
	for changed {
		changed = false
		for _, pi := range all {
			key := pi.module + "." + pi.proc.Name
			if c.fixed[key] {
				continue
			}
			if c.procLooksFixed(pi.module, pi.proc) {
				c.fixed[key] = true
				changed = true
			}
		}
	}
}

func (c *Compiler) procLooksFixed(module string, proc *ast.Proc) bool {
	locals := map[string]bool{}
	for _, l := range proc.Locals {
		locals[l.Name] = true
	}
	goalFixed := func(g ast.Goal) bool {
		ag, ok := g.(*ast.AtomGoal)
		if !ok {
			return false
		}
		if ag.Update != ast.UpdateNone {
			// Updates to locals are frame-private; anything else is an
			// EDB side effect.
			return !locals[ag.Atom.PredName()]
		}
		name := ag.Atom.PredName()
		if name == "" || locals[name] || name == "in" {
			return false
		}
		if sym := c.lp.Resolve(module, name); sym != nil {
			return sym.Class == modsys.ClassProc && c.fixed[sym.Module+"."+sym.Name]
		}
		if c.opts.Builtin != nil {
			if sig, ok := c.opts.Builtin(name); ok {
				return sig.Fixed
			}
		}
		return false
	}
	var stmtsFixed func(stmts []ast.Stmt) bool
	stmtsFixed = func(stmts []ast.Stmt) bool {
		for _, st := range stmts {
			switch st := st.(type) {
			case *ast.Assign:
				if !st.IsReturn {
					name := st.Head.PredName()
					// HiLog heads and non-local simple heads hit the EDB.
					if name == "" || !locals[name] {
						return true
					}
				}
				for _, g := range st.Body {
					if goalFixed(g) {
						return true
					}
				}
			case *ast.Repeat:
				if stmtsFixed(st.Body) {
					return true
				}
				for _, alt := range st.Until {
					for _, g := range alt {
						if goalFixed(g) {
							return true
						}
					}
				}
			}
		}
		return false
	}
	return stmtsFixed(proc.Body)
}

// compileProc compiles one procedure; id overrides the default module.name
// procedure ID (used for generated NAIL! procedures).
func (c *Compiler) compileProc(module string, proc *ast.Proc, id string) (string, error) {
	if id == "" {
		id = module + "." + proc.Name
	}
	if _, done := c.prog.Procs[id]; done {
		return id, nil
	}
	p := &Proc{
		ID:     id,
		Module: module,
		Name:   proc.Name,
		Bound:  len(proc.BoundParams),
		Free:   len(proc.FreeParams),
		Fixed:  c.fixed[module+"."+proc.Name],
	}
	for _, l := range proc.Locals {
		p.Locals = append(p.Locals, LocalDecl{Name: l.Name, Arity: l.Arity()})
	}
	// Install before compiling the body so recursive references resolve.
	c.prog.Procs[id] = p
	pc := &procCompiler{
		c:      c,
		module: module,
		proc:   proc,
		locals: map[string]int{},
	}
	for _, l := range proc.Locals {
		pc.locals[l.Name] = l.Arity()
	}
	body, err := pc.compileStmts(proc.Body)
	if err != nil {
		delete(c.prog.Procs, id)
		return "", err
	}
	p.Body = body
	return id, nil
}

// nailProcID names a generated NAIL! procedure.
func nailProcID(module, pred, adorn string) string {
	return module + "." + pred + "@" + adorn
}

// requestNail ensures the generated procedure for (sym, adornment) exists.
// It returns the procedure ID and the effective adornment, which may be
// all-free when magic-set rewriting is disabled. The adornment has one
// 'b'/'f' per value argument; families are always requested all-free over
// name+value arguments.
func (c *Compiler) requestNail(sym *modsys.Symbol, adorn string) (string, string, error) {
	if c.opts.NoMagic {
		adorn = strings.Repeat("f", len(adorn))
	}
	id := nailProcID(sym.Module, sym.Name, adorn)
	if _, done := c.prog.Procs[id]; done {
		return id, adorn, nil
	}
	if c.inFly[id] {
		return "", "", fmt.Errorf(
			"plan: cross-module NAIL! recursion through %s.%s is not supported",
			sym.Module, sym.Name)
	}
	c.inFly[id] = true
	defer delete(c.inFly, id)
	gen, err := nail.Generate(c.lp, sym, adorn, nail.Options{
		Magic:     !c.opts.NoMagic,
		SemiNaive: !c.opts.Naive,
	})
	if err != nil {
		return "", "", err
	}
	id, err = c.compileProc(sym.Module, gen, id)
	return id, adorn, err
}

// requestFamily ensures the all-free flat procedure for a HiLog family.
func (c *Compiler) requestFamily(sym *modsys.Symbol) (string, error) {
	id, _, err := c.requestNail(sym, strings.Repeat("f", sym.NameArity+sym.Free))
	return id, err
}
