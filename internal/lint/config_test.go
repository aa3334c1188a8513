package lint_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/accnet/acc/internal/lint"
)

// TestDefaultConfigResolves holds DefaultConfig to the tree it guards: every
// package, type, function, method and field it names, and every allowlist
// entry's package, file and function, exists in the module. A checker
// matches these names as plain strings, so an entry whose subject was
// deleted or renamed would otherwise pass silently and guard nothing.
func TestDefaultConfigResolves(t *testing.T) {
	prog := loadModule(t)
	pkgs := map[string]*lint.Package{}
	for _, p := range prog.Pkgs {
		pkgs[p.ImportPath] = p
	}
	cfg := lint.DefaultConfig()

	for _, path := range slices.Concat(cfg.DeterministicPkgs, cfg.EnginePkgs) {
		if pkgs[path] == nil {
			t.Errorf("package %s: not in the module", path)
		}
	}
	typeNames := slices.Concat([]string{cfg.CodecVisitorType}, cfg.QueueTypes, cfg.TracerTypes, cfg.BarrierOwnedTypes)
	for _, name := range typeNames {
		if _, ok := lookup(pkgs, name).(*types.TypeName); !ok {
			t.Errorf("type %s: not in the module", name)
		}
	}
	for _, name := range slices.Concat(cfg.HotRoots, cfg.BarrierRoots, cfg.BarrierMutMethods) {
		if _, ok := lookup(pkgs, name).(*types.Func); !ok {
			t.Errorf("function %s: not in the module", name)
		}
	}
	for _, name := range cfg.BarrierSlotFields {
		if v, ok := lookup(pkgs, name).(*types.Var); !ok || !v.IsField() {
			t.Errorf("field %s: not in the module", name)
		}
	}
	for _, a := range cfg.Allow {
		if !allowResolves(prog, pkgs[a.Pkg], a) {
			t.Errorf("allow entry %+v: no such package, file or function", a)
		}
	}
}

// lookup resolves a Config name — "importpath.Name" or
// "importpath.Type.Member", a member being a method or a field — to its
// object, or nil.
func lookup(pkgs map[string]*lint.Package, name string) types.Object {
	for path, p := range pkgs {
		rest, ok := strings.CutPrefix(name, path+".")
		if !ok {
			continue
		}
		typ, member, hasMember := strings.Cut(rest, ".")
		obj := p.Types.Scope().Lookup(typ)
		if !hasMember || obj == nil {
			return obj
		}
		if _, ok := obj.(*types.TypeName); !ok {
			return nil
		}
		m, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, p.Types, member)
		return m
	}
	return nil
}

// allowResolves reports whether a's package is loaded and holds a's file
// and function, each when set.
func allowResolves(prog *lint.Program, p *lint.Package, a lint.AllowEntry) bool {
	if p == nil {
		return false
	}
	for _, f := range p.Files {
		if a.File != "" && filepath.Base(prog.Fset.Position(f.Pos()).Filename) != a.File {
			continue
		}
		if a.Func == "" {
			return true
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == a.Func {
				return true
			}
		}
	}
	return false
}
