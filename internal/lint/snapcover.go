package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// Snapcover proves snapshot completeness. A stateful type lists its state
// once, in a state walk: a method named state or State that takes the
// codec Visitor, which saves and restores the same fields in the same
// order. Every field of such a type must be accounted for in one of four
// ways, or the build fails:
//
//  1. visited: handed to a visiting call — a call that also takes the
//     Visitor, whether a Visitor method that moves data, a codec helper,
//     another type's walk, or any helper passed the Visitor — somewhere in
//     the walk's static call tree, either directly or through a local
//     initialized from it (a range variable, a copy the walk visits);
//  2. rebuilt reader-free by the restore path: assigned an expression with
//     no Visitor in it, in the walk's call tree or in a function that calls
//     the walk (a restore constructor). Writing back a local copied out of
//     the field is a round trip, not a rebuild;
//  3. function-valued: a function has no serializable identity and can
//     only be rebound at construction;
//  4. annotated on its declaration line with
//     //acclint:ignore snapcover <what rebuilds it>.
//
// A field that is none of these is invisible to snapshots: a fork or a
// warm-started sweep silently diverges from the cold run the first time
// the field matters. Deleting a field from a walk therefore fails the
// build on that field, unless something else rebuilds it.
type Snapcover struct{}

// Name implements Checker.
func (Snapcover) Name() string { return "snapcover" }

// Rev is the audit revision for //acclint:ignore snapcover@rev pins.
func (Snapcover) Rev() int { return 2 }

// visitorBookkeeping are the Visitor methods that move no data: a call to
// one visits nothing.
var visitorBookkeeping = map[string]bool{"Err": true, "Fail": true, "Reading": true, "Remaining": true}

// Check implements Checker.
func (Snapcover) Check(prog *Program, cfg *Config) []Diagnostic {
	if cfg.CodecVisitorType == "" {
		return nil
	}
	s := &snapIndex{visitor: cfg.CodecVisitorType, nodes: map[*types.Func]*funcNode{}, walks: map[*types.TypeName][]*types.Func{}}
	order := declFuncs(prog)
	var stateful []*types.TypeName
	for _, n := range order {
		s.nodes[n.fn] = n
		if obj := s.walkOf(n.fn); obj != nil {
			if s.walks[obj] == nil {
				stateful = append(stateful, obj)
			}
			s.walks[obj] = append(s.walks[obj], n.fn)
		}
	}

	var diags []Diagnostic
	for _, obj := range stateful {
		st := obj.Type().Underlying().(*types.Struct)
		fields := map[*types.Var]bool{}
		for i := 0; i < st.NumFields(); i++ {
			fields[st.Field(i)] = true
		}
		tree := s.reach(s.walks[obj])
		restore := append(tree, s.callers(order, s.walks[obj])...)
		visited, rebuilt := map[*types.Var]bool{}, map[*types.Var]bool{}
		for _, n := range tree {
			s.markVisited(n, fields, visited)
		}
		for _, n := range restore {
			s.markRebuilt(n, fields, rebuilt)
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" || visited[f] || rebuilt[f] || funcValued(f.Type()) {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:   prog.Fset.Position(f.Pos()),
				Check: "snapcover",
				Msg: fmt.Sprintf(
					"field %s.%s.%s is not visited by %s, and no restore path rebuilds it — snapshots silently drop it; visit it, rebuild it on restore, or annotate the field with //acclint:ignore snapcover <what rebuilds it>",
					obj.Pkg().Name(), obj.Name(), f.Name(), shortFuncName(s.walks[obj][0])),
			})
		}
	}
	return diags
}

// snapIndex is the function index snapcover walks.
type snapIndex struct {
	visitor string // "importpath.Type" of the codec Visitor
	nodes   map[*types.Func]*funcNode
	walks   map[*types.TypeName][]*types.Func // each stateful type's walks
}

// walkOf returns the struct type fn is a state walk of, or nil.
func (s *snapIndex) walkOf(fn *types.Func) *types.TypeName {
	if fn.Name() != "state" && fn.Name() != "State" {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || !s.takesVisitor(sig) {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		if _, ok := named.Underlying().(*types.Struct); ok {
			return named.Obj()
		}
	}
	return nil
}

func (s *snapIndex) takesVisitor(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if namedKey(sig.Params().At(i).Type()) == s.visitor {
			return true
		}
	}
	return false
}

// reach returns the in-program functions statically reachable from roots,
// roots included.
func (s *snapIndex) reach(roots []*types.Func) []*funcNode {
	seen := map[*types.Func]bool{}
	var out []*funcNode
	queue := append([]*types.Func(nil), roots...)
	for len(queue) > 0 {
		fn := queue[0].Origin()
		queue = queue[1:]
		n := s.nodes[fn]
		if seen[fn] || n == nil {
			continue
		}
		seen[fn] = true
		out = append(out, n)
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			if call, ok := node.(*ast.CallExpr); ok {
				if callee := calleeFunc(n.pkg.Info, call); callee != nil {
					queue = append(queue, callee)
				}
			}
			return true
		})
	}
	return out
}

// callers returns the functions outside the walks that call one of them:
// the restore constructors and the walks' owners.
func (s *snapIndex) callers(order []*funcNode, walks []*types.Func) []*funcNode {
	isWalk := map[*types.Func]bool{}
	for _, fn := range walks {
		isWalk[fn] = true
	}
	var out []*funcNode
	for _, n := range order {
		if isWalk[n.fn] {
			continue
		}
		calls := false
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			if call, ok := node.(*ast.CallExpr); ok && !calls {
				if callee := calleeFunc(n.pkg.Info, call); callee != nil && isWalk[callee.Origin()] {
					calls = true
				}
			}
			return !calls
		})
		if calls {
			out = append(out, n)
		}
	}
	return out
}

// isVisitor reports whether e has the Visitor's type.
func (s *snapIndex) isVisitor(info *types.Info, e ast.Expr) bool {
	return namedKey(info.TypeOf(e)) == s.visitor
}

// stateful reports whether t, or what it points to, is a type with a walk.
func (s *snapIndex) stateful(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && s.walks[named.Obj()] != nil
}

// visiting reports whether call visits: it takes the Visitor as an
// argument, or is one of the Visitor's own data methods.
func (s *snapIndex) visiting(info *types.Info, call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && s.isVisitor(info, sel.X) {
		return !visitorBookkeeping[sel.Sel.Name]
	}
	for _, a := range call.Args {
		if s.isVisitor(info, a) {
			return true
		}
	}
	return false
}

// locals is what snapcover knows about one function's local variables.
type locals struct {
	// views maps a local that copies or views fields of interest — a range
	// variable, a slice or element of one, a clone — to those fields.
	views map[*types.Var][]*types.Var
	// image holds the locals a visiting call fills (through their address)
	// or returns: values that come from the image, not from construction.
	image map[*types.Var]bool
}

// fieldsIn returns the fields of interest e mentions, directly or through
// the locals that view them, outside function literals.
func (l *locals) fieldsIn(info *types.Info, e ast.Node, fields map[*types.Var]bool) []*types.Var {
	var out []*types.Var
	ast.Inspect(e, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[node]; ok && sel.Kind() == types.FieldVal {
				if f, ok := sel.Obj().(*types.Var); ok && fields[f] {
					out = append(out, f)
				}
			}
		case *ast.Ident:
			if v, ok := info.Uses[node].(*types.Var); ok {
				out = append(out, l.views[v]...)
			}
		}
		return true
	})
	return out
}

// viewOf returns the fields of interest e is a copy or view of: e with
// parentheses, dereferences, addresses, indexing, slicing, conversions and
// slices.Clone peeled off is a field selector chain or a viewing local.
func (l *locals) viewOf(info *types.Info, e ast.Expr, fields map[*types.Var]bool) []*types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.CallExpr:
			fn := calleeFunc(info, x)
			conversion := info.Types[x.Fun].IsType()
			clone := fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "slices" && fn.Name() == "Clone"
			if len(x.Args) != 1 || !conversion && !clone {
				return nil
			}
			e = x.Args[0]
		case *ast.SelectorExpr, *ast.Ident:
			return l.fieldsIn(info, x, fields)
		default:
			return nil
		}
	}
}

// scanLocals collects n's locals facts for one stateful type's fields.
func (s *snapIndex) scanLocals(n *funcNode, fields map[*types.Var]bool) *locals {
	info := n.pkg.Info
	l := &locals{views: map[*types.Var][]*types.Var{}, image: map[*types.Var]bool{}}
	local := func(e ast.Expr) *types.Var {
		if id, ok := e.(*ast.Ident); ok {
			if v, ok := info.Defs[id].(*types.Var); ok {
				return v
			}
			v, _ := info.Uses[id].(*types.Var)
			return v
		}
		return nil
	}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				v := local(lhs)
				if v == nil {
					continue
				}
				rhs := node.Rhs[0]
				if len(node.Rhs) == len(node.Lhs) {
					rhs = node.Rhs[i]
				}
				if node.Tok == token.DEFINE {
					l.views[v] = l.viewOf(info, rhs, fields)
				}
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && s.visiting(info, call) {
					l.image[v] = true
				}
			}
		case *ast.RangeStmt:
			if v := local(node.Value); v != nil && node.Tok == token.DEFINE {
				l.views[v] = l.viewOf(info, node.X, fields)
			}
		case *ast.TypeSwitchStmt:
			if assign, ok := node.Assign.(*ast.AssignStmt); ok {
				from := l.viewOf(info, assign.Rhs[0], fields)
				for _, c := range node.Body.List {
					if v, ok := info.Implicits[c].(*types.Var); ok {
						l.views[v] = from
					}
				}
			}
		case *ast.CallExpr:
			if !s.visiting(info, node) {
				break
			}
			for _, a := range node.Args {
				if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND {
					e := u.X
					for ix, ok := e.(*ast.IndexExpr); ok; ix, ok = e.(*ast.IndexExpr) {
						e = ix.X
					}
					if v := local(e); v != nil {
						l.image[v] = true
					}
				}
			}
		}
		return true
	})
	return l
}

// markVisited marks the fields of interest n's visiting calls take: what
// they are handed by address, what else they are handed unless it is
// another stateful object (context for the walk, not its data), and, when
// the call is itself a walk, its receiver.
func (s *snapIndex) markVisited(n *funcNode, fields, visited map[*types.Var]bool) {
	info := n.pkg.Info
	l := s.scanLocals(n, fields)
	mark := func(e ast.Expr) {
		for _, f := range l.fieldsIn(info, e, fields) {
			visited[f] = true
		}
	}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok || !s.visiting(info, call) {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if fn := calleeFunc(info, call); fn != nil && s.walkOf(fn.Origin()) != nil {
				mark(sel.X)
			}
		}
		for _, a := range call.Args {
			if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND || !s.stateful(info.TypeOf(a)) {
				mark(a)
			}
		}
		return true
	})
}

// markRebuilt marks the fields of interest n's body assigns, or sets in a
// composite literal, to a fresh value: one with no Visitor in it, no
// local that holds a value read from the image, and not a local copied out
// of the field itself — and not under an if whose condition reads such a
// local, where what is assigned still depends on the image.
func (s *snapIndex) markRebuilt(n *funcNode, fields, rebuilt map[*types.Var]bool) {
	info := n.pkg.Info
	l := s.scanLocals(n, fields)
	readsImage := func(e ast.Node) bool {
		found := false
		ast.Inspect(e, func(node ast.Node) bool {
			if id, ok := node.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && l.image[v] {
					found = true
				}
			}
			return !found
		})
		return found
	}
	var controlled []ast.Node // the branches of ifs whose condition reads the image
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		if ifs, ok := node.(*ast.IfStmt); ok && readsImage(ifs.Cond) {
			controlled = append(controlled, ifs.Body)
			if ifs.Else != nil {
				controlled = append(controlled, ifs.Else)
			}
		}
		return true
	})
	fresh := func(f *types.Var, e ast.Expr) bool {
		for _, c := range controlled {
			if c.Pos() <= e.Pos() && e.End() <= c.End() {
				return false
			}
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && slices.Contains(l.views[v], f) {
				return false
			}
		}
		found := false
		ast.Inspect(e, func(node ast.Node) bool {
			if ex, ok := node.(ast.Expr); ok && s.isVisitor(info, ex) {
				found = true
			}
			return !found
		})
		return !found && !readsImage(e)
	}
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.AssignStmt:
			if node.Tok != token.ASSIGN {
				break
			}
			for i, lhs := range node.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || info.Selections[sel] == nil {
					continue
				}
				f, ok := info.Selections[sel].Obj().(*types.Var)
				if !ok || !fields[f] {
					continue
				}
				rhs := node.Rhs[0]
				if len(node.Rhs) == len(node.Lhs) {
					rhs = node.Rhs[i]
				}
				if fresh(f, rhs) {
					rebuilt[f] = true
				}
			}
		case *ast.KeyValueExpr: // a field set in a composite literal
			key, _ := node.Key.(*ast.Ident)
			if f, ok := info.Uses[key].(*types.Var); ok && fields[f] && fresh(f, node.Value) {
				rebuilt[f] = true
			}
		}
		return true
	})
}

// funcValued reports whether a field type holds function values (directly
// or as the element type of slices, arrays, maps, or pointers). Function
// values have no serializable identity — they can only be rebound at
// construction — so snapcover exempts them implicitly rather than demand
// an annotation that could never be satisfied by saving.
func funcValued(t types.Type) bool {
	for {
		switch u := t.Underlying().(type) {
		case *types.Signature:
			return true
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return false
		}
	}
}
