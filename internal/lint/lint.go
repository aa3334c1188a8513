// Package lint is a from-scratch static-analysis framework for this repo,
// built only on the standard library's go/parser and go/types (no
// golang.org/x/tools dependency, preserving the module's stdlib-only rule).
//
// It exists to turn the repository's two load-bearing invariants —
// bit-for-bit deterministic replay and a zero-allocation per-packet hot
// path — from test-suite folklore into build-failing facts. The runtime
// test suite exercises *some* code paths; a stray time.Now, an unseeded
// global math/rand call, a goroutine, an unordered map range, or a closure
// handed to the scheduler can silently break replay or reintroduce
// allocations anywhere the tests do not reach. The checkers in this
// package prove the properties over the whole source tree on every build.
//
// Five domain checkers ship today (see determinism.go, hotpath.go,
// tracerguard.go). Checkers run over a type-checked Program loaded by
// Loader (load.go) and report Diagnostics. Deliberate violations are
// annotated in source with
//
//	//acclint:ignore <check> <reason>
//
// on the offending line or the line above it. The reason is mandatory,
// the check name must exist, and an annotation that suppresses nothing is
// itself an error — so ignores cannot rot (ignore.go).
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding: a position, the checker that produced it, and
// a human-readable message.
type Diagnostic struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Msg)
}

// Checker is one analysis pass over a whole loaded program. Checkers see
// the full Program (not one package at a time) because some properties —
// hot-path reachability — are inherently cross-package.
//
// Rev is the checker's audit revision: it starts at 1 and is bumped
// whenever the checker's rules tighten enough that previously audited
// //acclint:ignore annotations deserve a fresh look. An annotation may pin
// the revision it was audited against ("//acclint:ignore check@2 reason");
// when the pinned revision falls behind Rev, the annotation itself becomes
// a diagnostic until someone re-audits and re-pins it (ignore.go).
type Checker interface {
	Name() string
	Rev() int
	Check(prog *Program, cfg *Config) []Diagnostic
}

// AllCheckers returns the full suite in a fixed order.
func AllCheckers() []Checker {
	return []Checker{Determinism{}, Hotpath{}, TracerGuard{}, Snapcover{}, Barriermut{}}
}

// Run executes the checkers over prog, applies the //acclint:ignore
// annotations found in prog's sources, appends annotation-misuse errors
// (unknown check, missing reason, stale ignore), and returns the surviving
// diagnostics sorted by position.
func Run(prog *Program, cfg *Config, checkers []Checker) []Diagnostic {
	// The check-name universe is always the full suite: an annotation for a
	// checker that exists but was deselected this run (acclint -checks ...)
	// is neither unknown nor provably stale. Revision pins, by contrast,
	// are statically decidable, so the map carries each checker's Rev.
	known := make(map[string]int)
	for _, c := range AllCheckers() {
		known[c.Name()] = c.Rev()
	}
	active := make(map[string]bool, len(checkers))
	var diags []Diagnostic
	for _, c := range checkers {
		known[c.Name()] = c.Rev()
		active[c.Name()] = true
		diags = append(diags, c.Check(prog, cfg)...)
	}
	igs := scanIgnores(prog)
	out := applyIgnores(diags, igs, known, active)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Check < out[j].Check
	})
	return out
}
