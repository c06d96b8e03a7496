// Package bufretain enforces the rounds.Protocol buffer-lifetime
// contract (DESIGN.md §9, §11) statically. The engine hands Deliver a
// buffer that is only valid for the duration of the call, and Emit
// batches stay backed by the emitting node's encode arena; a protocol
// or adversary wrapper that stores either — or anything decoded from
// them zero-copy — into a field, package variable, channel, or escaping
// closure without a deep copy corrupts later rounds in
// schedule-dependent ways the equivalence tests can only catch after
// the fact.
//
// The analyzer runs a per-function, textual-order taint pass:
//
//   - sources: []byte parameters of Deliver methods, slice parameters
//     of OnTopology (shared with the graph), parameters of type
//     nectar.EdgeMsg or []sig.Hop, results of calls whose name contains
//     "NoCopy", results of Emit calls, and wire.Reader.Raw/LenBytes;
//   - propagation: through assignment, slicing, indexing, field
//     selection, composite literals, append, and range statements;
//   - sanitizers: calls whose name contains "copy" or "clone"
//     (EdgeMsg.Copy, copySends, ...), fresh allocations (make, new,
//     composite literals), and append onto a fresh head with
//     value-typed elements (append([]byte(nil), data...));
//   - sinks: stores into struct fields or package variables, channel
//     sends, and go statements that receive tainted values or closures
//     capturing them.
//
// The pass is intraprocedural by design: a helper that receives an
// EdgeMsg parameter is analyzed under the same rules as Deliver itself,
// so copy-then-store helpers (Node.accept) check cleanly and
// store-then-copy ones do not.
package bufretain

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/nectar-repro/nectar/internal/analysis/nvet"
	"github.com/nectar-repro/nectar/internal/analysis/scope"
)

var Analyzer = &nvet.Analyzer{
	Name:  "bufretain",
	Doc:   "enforce the Protocol buffer-lifetime contract: wire-decoded slices and EdgeMsgs must be Copy()d before being retained past the call",
	Scope: scope.Protocols,
	Run:   run,
}

// aliasingTypes identifies the named types whose values carry aliases
// into a decode buffer, by defining package path and type name.
var aliasingTypes = map[[2]string]bool{
	{"github.com/nectar-repro/nectar/internal/nectar", "EdgeMsg"}: true,
	{"github.com/nectar-repro/nectar/internal/sig", "Hop"}:        true,
}

func run(pass *nvet.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &checker{pass: pass, taint: map[types.Object]bool{}}
			c.seedParams(fd)
			c.walk(fd.Body)
		}
	}
	return nil
}

type checker struct {
	pass  *nvet.Pass
	taint map[types.Object]bool
}

// seedParams marks the parameters that arrive aliased to engine- or
// decode-owned memory.
func (c *checker) seedParams(fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	name := fd.Name.Name
	for _, field := range fd.Type.Params.List {
		t := c.pass.TypesInfo.TypeOf(field.Type)
		if t == nil {
			continue
		}
		aliased := c.aliasingType(t) ||
			(name == "Deliver" && isByteSlice(t)) ||
			(name == "OnTopology" && isSlice(t))
		if !aliased {
			continue
		}
		for _, id := range field.Names {
			if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
				c.taint[obj] = true
			}
		}
	}
}

// aliasingType reports whether t is (or contains, one slice/pointer
// level deep) one of the buffer-aliasing named types.
func (c *checker) aliasingType(t types.Type) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return c.aliasingType(t.Elem())
	case *types.Slice:
		return c.aliasingType(t.Elem())
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() == nil {
			return false
		}
		return aliasingTypes[[2]string{obj.Pkg().Path(), obj.Name()}]
	}
	return false
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// walk visits the statements of a body in source order, propagating
// taint and reporting retention sinks. Nested function literals are
// walked in place with the same taint set, which is exactly the capture
// semantics of closures.
func (c *checker) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.assign(n)
		case *ast.RangeStmt:
			if c.taintedExpr(n.X) {
				for _, lhs := range []ast.Expr{n.Key, n.Value} {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
							c.taint[obj] = true
						}
					}
				}
			}
		case *ast.DeclStmt:
			c.declare(n)
		case *ast.SendStmt:
			if c.taintedExpr(n.Value) {
				c.pass.Reportf(n.Pos(),
					"buffer lifetime: sending a wire-aliased value on a channel lets it outlive the call; Copy() it first (rounds.Protocol contract)")
			}
		case *ast.GoStmt:
			c.goStmt(n)
		}
		return true
	})
}

func (c *checker) declare(ds *ast.DeclStmt) {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, id := range vs.Names {
			if i < len(vs.Values) && c.taintedExpr(vs.Values[i]) {
				if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
					c.taint[obj] = true
				}
			}
		}
	}
}

func (c *checker) assign(as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		rhs := as.Rhs[0]
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		}
		tainted := c.taintedExpr(rhs)
		if tainted && c.retainTarget(lhs) {
			c.pass.Reportf(as.Pos(),
				"buffer lifetime: storing a wire-aliased value into %s lets it outlive the call; Copy() it first (rounds.Protocol contract)",
				describeTarget(lhs))
		}
		// Propagate (or clear, on reassignment from a clean source —
		// the m = m.Copy() idiom) through simple variables.
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
			if obj := c.pass.TypesInfo.ObjectOf(id); obj != nil && isLocalVar(obj) {
				if tainted {
					c.taint[obj] = true
				} else {
					delete(c.taint, obj)
				}
			}
		}
	}
}

func (c *checker) goStmt(g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if c.taintedExpr(arg) {
			c.pass.Reportf(arg.Pos(),
				"buffer lifetime: passing a wire-aliased value to a goroutine lets it outlive the call; Copy() it first (rounds.Protocol contract)")
		}
	}
	if fl, ok := g.Call.Fun.(*ast.FuncLit); ok && c.captures(fl) {
		c.pass.Reportf(g.Pos(),
			"buffer lifetime: goroutine closure captures a wire-aliased value; Copy() it before the go statement (rounds.Protocol contract)")
	}
}

// retainTarget reports whether lhs names storage that outlives the
// call: a struct field or a package-level variable, possibly through
// an index.
func (c *checker) retainTarget(lhs ast.Expr) bool {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		sel, ok := c.pass.TypesInfo.Selections[e]
		return ok && sel.Kind() == types.FieldVal
	case *ast.Ident:
		obj := c.pass.TypesInfo.ObjectOf(e)
		return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
	case *ast.IndexExpr:
		return c.retainTarget(e.X)
	}
	return false
}

func describeTarget(lhs ast.Expr) string {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return "field " + e.Sel.Name
	case *ast.Ident:
		return "package variable " + e.Name
	case *ast.IndexExpr:
		return describeTarget(e.X)
	}
	return "escaping storage"
}

// taintedExpr reports whether evaluating e can yield memory aliased to
// an engine-owned buffer.
func (c *checker) taintedExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return c.taint[c.pass.TypesInfo.ObjectOf(e)]
	case *ast.SelectorExpr:
		return c.taintedExpr(e.X)
	case *ast.IndexExpr:
		return c.taintedExpr(e.X)
	case *ast.SliceExpr:
		return c.taintedExpr(e.X)
	case *ast.StarExpr:
		return c.taintedExpr(e.X)
	case *ast.UnaryExpr:
		return c.taintedExpr(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if c.taintedExpr(el) {
				return true
			}
		}
		return false
	case *ast.FuncLit:
		return c.captures(e)
	case *ast.CallExpr:
		return c.taintedCall(e)
	}
	return false
}

// taintedCall classifies a call's result.
func (c *checker) taintedCall(call *ast.CallExpr) bool {
	name := nvet.CalleeName(call)
	lower := strings.ToLower(name)
	switch {
	case name == "append":
		// append onto a fresh head copies value-typed elements into new
		// backing; anything else propagates the aliases of its inputs.
		if len(call.Args) > 0 && freshHead(call.Args[0]) && valueElems(c.pass.TypesInfo, call) {
			return false
		}
		for _, arg := range call.Args {
			if c.taintedExpr(arg) {
				return true
			}
		}
		return false
	case strings.Contains(lower, "copy") || strings.Contains(lower, "clone"):
		return false // deep-copy constructors: EdgeMsg.Copy, copySends, ...
	case strings.Contains(name, "NoCopy"):
		return true // decodeProofNoCopy, DecodeHopsNoCopy: alias by design
	case name == "Emit":
		return true // Emit batches stay backed by the emitter's arena
	case name == "Raw" || name == "LenBytes":
		return c.wireReaderMethod(call) // sub-slices of the reader's buffer
	}
	return false
}

// wireReaderMethod reports whether the call is a method on wire.Reader.
func (c *checker) wireReaderMethod(call *ast.CallExpr) bool {
	fn := nvet.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "github.com/nectar-repro/nectar/internal/wire" &&
		named.Obj().Name() == "Reader"
}

// freshHead reports whether an append head is freshly allocated:
// []T(nil), []T{...}, or make(...).
func freshHead(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.CallExpr:
		if _, ok := e.Fun.(*ast.ArrayType); ok {
			return true // []byte(nil) conversion
		}
		return nvet.CalleeName(e) == "make"
	}
	return false
}

// valueElems reports whether the append's element type is a basic type,
// so appending copies the values themselves (no interior aliases).
func valueElems(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	_, basic := s.Elem().Underlying().(*types.Basic)
	return basic
}

// captures reports whether the function literal references a tainted
// variable declared outside it.
func (c *checker) captures(fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil && c.taint[obj] &&
				obj.Pos() < fl.Pos() {
				found = true
			}
		}
		return !found
	})
	return found
}

func isLocalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() != v.Pkg().Scope()
}
