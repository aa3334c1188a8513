package lint

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves the static callee of a call expression, or nil for
// dynamic calls (function values, interface methods) and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// recvNamed returns the named receiver type of a method, unwrapping one
// level of pointer. ok is false for plain functions and anonymous
// receivers.
func recvNamed(fn *types.Func) (pkgPath, typeName string, ok bool) {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), true
}

// funcMatchKey renders fn in the Config.HotRoots grammar:
// "importpath.Func" for functions, "importpath.Type.Method" for methods
// (pointer-ness of the receiver erased).
func funcMatchKey(fn *types.Func) string {
	if pkgPath, typeName, ok := recvNamed(fn); ok {
		return funcKey(pkgPath, typeName, fn.Name())
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return funcKey(fn.Pkg().Path(), "", fn.Name())
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// isIdentNamed reports whether e is an identifier with the given name.
func isIdentNamed(e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == name
}

// namedKey renders the "importpath.TypeName" key of t, unwrapping one
// pointer level; "" for unnamed or builtin types.
func namedKey(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return typeKey(n.Obj().Pkg().Path(), n.Obj().Name())
}

// shortFuncName renders fn compactly for diagnostics: pkg.Type.Method.
func shortFuncName(fn *types.Func) string {
	if _, typeName, ok := recvNamed(fn); ok && fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + typeName + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// declFuncs returns every function declaration with a body, in
// deterministic (package, file, declaration) order.
func declFuncs(prog *Program) []*funcNode {
	var out []*funcNode
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					out = append(out, &funcNode{fn: fn, decl: fd, pkg: pkg})
				}
			}
		}
	}
	return out
}
