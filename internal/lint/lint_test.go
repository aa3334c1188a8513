package lint_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/accnet/acc/internal/lint"
)

var update = flag.Bool("update", false, "rewrite the expected.golden files from the current checker output")

// fixturePath is the synthetic import-path prefix fixture packages load
// under; it never collides with the real module.
const fixturePrefix = "acclint/fixture/"

// fixtureCase wires one testdata package to the narrow Config its checkers
// run under. Each config names only the fixture package, so the real
// module's defaults never leak into the corpus.
type fixtureCase struct {
	name string
	cfg  func(ipath string) *lint.Config
}

func fixtureCases() []fixtureCase {
	deterministic := func(ipath string) *lint.Config {
		return &lint.Config{DeterministicPkgs: []string{ipath}}
	}
	hotpath := func(ipath string) *lint.Config {
		return &lint.Config{
			EnginePkgs: []string{ipath},
			QueueTypes: []string{ipath + ".Queue"},
			HotRoots:   []string{ipath + ".Deliver"},
		}
	}
	tracer := func(ipath string) *lint.Config {
		return &lint.Config{TracerTypes: []string{ipath + ".Tracer"}}
	}
	snapcover := func(ipath string) *lint.Config {
		return &lint.Config{CodecVisitorType: ipath + ".Visitor"}
	}
	barrier := func(ipath string) *lint.Config {
		return &lint.Config{
			BarrierOwnedTypes: []string{ipath + ".Coord"},
			BarrierSlotFields: []string{ipath + ".Coord.slots"},
			BarrierRoots:      []string{ipath + ".Run"},
			BarrierMutMethods: []string{ipath + ".Coord.Stop"},
		}
	}
	return []fixtureCase{
		{"determinism_bad", deterministic},
		{"determinism_ok", func(ipath string) *lint.Config {
			cfg := deterministic(ipath)
			cfg.Allow = []lint.AllowEntry{{
				Check:  "determinism",
				Pkg:    ipath,
				Func:   "allowedSpawn",
				Reason: "fixture mirror of the parallel experiment runner allowlist",
			}}
			return cfg
		}},
		{"hotpath_bad", hotpath},
		{"hotpath_ok", hotpath},
		{"tracerguard_bad", tracer},
		{"tracerguard_ok", tracer},
		{"snapcover_bad", snapcover},
		{"snapcover_ok", snapcover},
		{"barriermut_bad", barrier},
		{"barriermut_ok", barrier},
		{"ignore_bad", deterministic},
		{"ignore_ok", deterministic},
	}
}

// sharedLoader returns the one Loader the tests in this binary share. It
// caches every package it type-checks, stdlib imports included, so each
// fixture and the module itself are checked once however many tests read
// them.
var sharedLoader = sync.OnceValues(func() (*lint.Loader, error) { return lint.NewLoader(".") })

// loadFixture typechecks one testdata package through the same loader the
// CLI uses.
func loadFixture(t *testing.T, name string) *lint.Program {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", name), fixturePrefix+name)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	return &lint.Program{Fset: loader.Fset, Pkgs: []*lint.Package{pkg}}
}

// render flattens diagnostics to the golden format: one
// "file:line:col: check: message" line per finding, with paths reduced to
// their base name so the corpus is location-independent.
func render(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n",
			filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Msg)
	}
	return b.String()
}

func TestFixtureCorpus(t *testing.T) {
	for _, fc := range fixtureCases() {
		t.Run(fc.name, func(t *testing.T) {
			prog := loadFixture(t, fc.name)
			cfg := fc.cfg(fixturePrefix + fc.name)
			got := render(lint.Run(prog, cfg, lint.AllCheckers()))

			goldenPath := filepath.Join("testdata", fc.name, "expected.golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", fc.name, got, want)
			}
		})
	}
}

// TestBadFixturesFire is a belt-and-braces check independent of the golden
// files: every *_bad fixture must produce at least one diagnostic and every
// *_ok fixture must produce none.
func TestBadFixturesFire(t *testing.T) {
	for _, fc := range fixtureCases() {
		t.Run(fc.name, func(t *testing.T) {
			prog := loadFixture(t, fc.name)
			diags := lint.Run(prog, fc.cfg(fixturePrefix+fc.name), lint.AllCheckers())
			broken := strings.HasSuffix(fc.name, "_bad")
			if broken && len(diags) == 0 {
				t.Errorf("%s: expected diagnostics, got none", fc.name)
			}
			if !broken && len(diags) != 0 {
				t.Errorf("%s: expected a clean run, got %d diagnostics:\n%s",
					fc.name, len(diags), render(diags))
			}
		})
	}
}

// TestIgnoreSemantics pins the escape-hatch contract promised in DESIGN.md
// without going through golden files: misused annotations are themselves
// build-failing diagnostics under the unsuppressible "acclint" check.
func TestIgnoreSemantics(t *testing.T) {
	prog := loadFixture(t, "ignore_bad")
	cfg := &lint.Config{DeterministicPkgs: []string{fixturePrefix + "ignore_bad"}}
	diags := lint.Run(prog, cfg, lint.AllCheckers())

	byCheck := map[string]int{}
	for _, d := range diags {
		byCheck[d.Check]++
	}
	// wrongName, noReason, crossCheck, rottenPin, and badPin each leave
	// their time.Now() diagnostic un-suppressed — a rotten or unparsable
	// revision pin stops suppressing.
	if byCheck["determinism"] != 5 {
		t.Errorf("determinism diagnostics surviving misuse = %d, want 5\n%s",
			byCheck["determinism"], render(diags))
	}
	// Unknown check, missing reason, stale, stale-cross-check, malformed,
	// rotten pin, unparsable pin.
	if byCheck["acclint"] != 7 {
		t.Errorf("acclint misuse diagnostics = %d, want 7\n%s", byCheck["acclint"], render(diags))
	}

	var msgs []string
	for _, d := range diags {
		if d.Check == "acclint" {
			msgs = append(msgs, d.Msg)
		}
	}
	joined := strings.Join(msgs, "\n")
	for _, want := range []string{"unknown check", "needs a reason", "stale //acclint:ignore", "malformed annotation", "rotten //acclint:ignore"} {
		if !strings.Contains(joined, want) {
			t.Errorf("acclint misuse messages missing %q:\n%s", want, joined)
		}
	}
}

// TestIgnoreSubsetRun pins the `acclint -checks` contract: an annotation
// for a checker that exists but was deselected this run is neither an
// unknown check nor provably stale, so a subset run over an annotated tree
// stays clean.
func TestIgnoreSubsetRun(t *testing.T) {
	prog := loadFixture(t, "ignore_ok")
	cfg := &lint.Config{DeterministicPkgs: []string{fixturePrefix + "ignore_ok"}}
	diags := lint.Run(prog, cfg, []lint.Checker{lint.Hotpath{}})
	if len(diags) != 0 {
		t.Errorf("subset run flagged deselected-check annotations:\n%s", render(diags))
	}
}

// loadModule typechecks the real module through the shared loader.
func loadModule(t *testing.T) *lint.Program {
	t.Helper()
	if testing.Short() {
		t.Skip("typechecking the full module is slow; skipped in -short")
	}
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	prog, err := loader.Load(loader.ModRoot, "./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	return prog
}

// TestSelfLint runs the shipped configuration over the real module: the
// tree must stay clean, which is the same gate CI enforces.
func TestSelfLint(t *testing.T) {
	prog := loadModule(t)
	if diags := lint.Run(prog, lint.DefaultConfig(), lint.AllCheckers()); len(diags) > 0 {
		t.Errorf("module is not lint-clean (%d diagnostics):\n%s", len(diags), render(diags))
	}
}
