package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath proves the zero-allocation per-packet invariant at the source
// level:
//
//   - In Config.EnginePkgs, function-literal arguments to the scheduling
//     methods of Config.QueueTypes (At, After, CallAt, CallAfter, Reset,
//     ResetAfter) are forbidden. A closure capture allocates per call; the
//     engine must pre-bind method values once and ride the typed pooled
//     fast path (CallAt/CallAfter with a pooled Event, Reset/ResetAfter
//     reusing the timer's Event in place).
//
//   - In any function statically reachable from the per-packet pipeline
//     roots (Config.HotRoots), fmt.Sprintf/Sprint/Sprintln/Errorf and
//     non-constant string concatenation are forbidden: each allocates on
//     a path executed millions of times per simulated second. Fatal
//     paths (panic messages) that genuinely need formatting carry an
//     //acclint:ignore annotation.
//
// Reachability is computed over the static call graph (direct calls and
// method calls on concrete receivers). Dynamic dispatch — stored func
// values, interface methods — is handled by listing the concrete handler
// methods themselves as roots.
type Hotpath struct{}

// Name implements Checker.
func (Hotpath) Name() string { return "hotpath" }

// Rev is the audit revision for //acclint:ignore hotpath@rev pins.
func (Hotpath) Rev() int { return 1 }

// schedMethods are the eventq.Queue scheduling entry points covered by
// the function-literal rule.
var schedMethods = map[string]bool{
	"At": true, "After": true, "CallAt": true, "CallAfter": true,
	"Reset": true, "ResetAfter": true,
}

// sprintfFuncs are the fmt allocation sinks flagged on the hot path.
var sprintfFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true,
}

// Check implements Checker.
func (h Hotpath) Check(prog *Program, cfg *Config) []Diagnostic {
	var diags []Diagnostic
	diags = append(diags, h.checkFuncLits(prog, cfg)...)
	diags = append(diags, h.checkReachable(prog, cfg)...)
	return diags
}

// checkFuncLits flags closures handed to the scheduler in engine packages.
func (Hotpath) checkFuncLits(prog *Program, cfg *Config) []Diagnostic {
	var diags []Diagnostic
	engine := stringSet(cfg.EnginePkgs)
	queueTypes := stringSet(cfg.QueueTypes)
	for _, pkg := range prog.Pkgs {
		if !engine[pkg.ImportPath] {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil || !schedMethods[fn.Name()] {
					return true
				}
				pkgPath, typeName, ok := recvNamed(fn)
				if !ok || !queueTypes[typeKey(pkgPath, typeName)] {
					return true
				}
				for _, arg := range call.Args {
					if lit, isLit := ast.Unparen(arg).(*ast.FuncLit); isLit {
						diags = append(diags, Diagnostic{
							Pos:   prog.Fset.Position(lit.Pos()),
							Check: "hotpath",
							Msg: fmt.Sprintf("function literal passed to %s.%s in an engine package: closures allocate per call — pre-bind a method value once and use the typed pooled fast path",
								typeName, fn.Name()),
						})
					}
				}
				return true
			})
		}
	}
	return diags
}

// funcNode ties a *types.Func to the syntax and package that define it.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// checkReachable builds the static call graph, walks it from the
// configured pipeline roots, and flags allocation sinks in every function
// the pipeline can reach.
func (Hotpath) checkReachable(prog *Program, cfg *Config) []Diagnostic {
	index := map[*types.Func]*funcNode{}
	for _, n := range declFuncs(prog) {
		index[n.fn] = n
	}

	callees := func(n *funcNode) []*types.Func {
		var out []*types.Func
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			if call, ok := node.(*ast.CallExpr); ok {
				if fn := calleeFunc(n.pkg.Info, call); fn != nil {
					out = append(out, fn)
				}
			}
			return true
		})
		return out
	}

	roots := stringSet(cfg.HotRoots)
	// reached maps each reachable function to the root that first reached
	// it, so diagnostics can say *why* a function is hot.
	reached := map[*types.Func]string{}
	var queue []*types.Func
	for fn := range index {
		if key := funcMatchKey(fn); roots[key] {
			reached[fn] = key
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := index[fn]
		if node == nil {
			continue // declared outside the loaded program (stdlib)
		}
		for _, callee := range callees(node) {
			if _, seen := reached[callee]; !seen {
				reached[callee] = reached[fn]
				queue = append(queue, callee)
			}
		}
	}

	var diags []Diagnostic
	for fn, root := range reached {
		node := index[fn]
		if node == nil {
			continue
		}
		diags = append(diags, flagAllocSinks(prog, node, root)...)
	}
	return diags
}

// flagAllocSinks reports fmt formatting and non-constant string
// concatenation inside one hot function body.
func flagAllocSinks(prog *Program, node *funcNode, root string) []Diagnostic {
	var diags []Diagnostic
	where := fmt.Sprintf("in %s (reachable from hot-path root %s)", node.fn.Name(), root)
	info := node.pkg.Info
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "fmt" && sprintfFuncs[fn.Name()] {
				diags = append(diags, Diagnostic{
					Pos:   prog.Fset.Position(n.Pos()),
					Check: "hotpath",
					Msg:   fmt.Sprintf("fmt.%s allocates %s — format off the packet path, or annotate a fatal path with //acclint:ignore", fn.Name(), where),
				})
			}
		case *ast.BinaryExpr:
			if n.Op != token.ADD {
				return true
			}
			t := info.TypeOf(n)
			if t == nil || !isStringType(t) {
				return true
			}
			if tv, ok := info.Types[n]; ok && tv.Value != nil {
				return true // constant-folded at compile time
			}
			diags = append(diags, Diagnostic{
				Pos:   prog.Fset.Position(n.Pos()),
				Check: "hotpath",
				Msg:   "string concatenation allocates " + where,
			})
			return false // one diagnostic per concat chain
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if t := info.TypeOf(n.Lhs[0]); t != nil && isStringType(t) {
					diags = append(diags, Diagnostic{
						Pos:   prog.Fset.Position(n.Pos()),
						Check: "hotpath",
						Msg:   "string += allocates " + where,
					})
				}
			}
		}
		return true
	})
	return diags
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
