package exp

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/accnet/acc/internal/simtime"
)

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		Title: "demo",
		Cols:  []string{"a", "bb"},
	}
	tbl.AddRow("x", 1.5)
	tbl.AddRow(2*simtime.Millisecond, "y")
	tbl.Notes = append(tbl.Notes, "a note")
	s := tbl.String()
	for _, want := range []string{"== demo ==", "a ", "bb", "1.5", "2ms", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	csv := tbl.CSV()
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
	if !strings.Contains(csv, "x,1.5\n") {
		t.Errorf("CSV rows wrong: %q", csv)
	}
}

func TestRegistryCoversPaper(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"table1", "resources",
		"ablation-history", "ablation-ddqn", "ablation-exchange",
		"ablation-busyidle", "ablation-period",
		"robust-linkfail", "robust-flap", "robust-telemetry",
	}
	have := map[string]bool{}
	for _, e := range List() {
		have[e[0]] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", DefaultOptions()); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// TestRunRejectsIgnoredOptions: an option the experiment does not read is
// an error, not a run without it.
func TestRunRejectsIgnoredOptions(t *testing.T) {
	for id, set := range map[string]func(*Options){
		"table1":         func(o *Options) { o.Fidelity = "hybrid" },
		"fig6":           func(o *Options) { o.RecordTrace = "x.bin" },
		"mix-collective": func(o *Options) { o.WorkloadSpec = "spec.json" },
		"fig8":           func(o *Options) { o.Shards = 4 },
	} {
		o := DefaultOptions()
		set(&o)
		if _, err := Run(id, o); err == nil {
			t.Errorf("%s ran with an option it ignores: %+v", id, o)
		}
	}
	for _, c := range []struct {
		set  func(*Options)
		want string
	}{
		{func(o *Options) { o.Shards = 4 }, "exp: fig8 ignores -shards (read only by mix-replay, mix-spec)"},
		{func(o *Options) { o.Fidelity = "hybrid" }, "exp: fig8 ignores -fidelity hybrid (read only by mix-replay, mix-spec)"},
	} {
		o := DefaultOptions()
		c.set(&o)
		if err := Check("fig8", o); err == nil || err.Error() != c.want {
			t.Errorf("fig8 with %+v: %v, want %q", o, err, c.want)
		}
		if err := Check("mix-spec", o); err != nil {
			t.Errorf("mix-spec refused %+v: %v", o, err)
		}
	}
}

// TestRatio: a ratio cell renders like any float cell, and an empty side
// (either one) renders "n/a", never 0.
func TestRatio(t *testing.T) {
	for _, c := range []struct {
		x, base float64
		want    string
	}{{4, 2, "2"}, {1, 3, "0.333"}, {2, 2, "1"}, {4, 0, "n/a"}, {0, 4, "n/a"}, {0, 0, "n/a"}} {
		if got := ratio(c.x, c.base); got != c.want {
			t.Errorf("ratio(%v, %v) = %q, want %q", c.x, c.base, got, c.want)
		}
	}
	if got := ratio(3*simtime.Millisecond, 2*simtime.Millisecond); got != "1.5" {
		t.Errorf("ratio of durations = %q, want 1.5", got)
	}
}

func TestGbpsAndKB(t *testing.T) {
	if got := gbps(1250_000_000, simtime.Second); got < 9.99 || got > 10.01 {
		t.Fatalf("gbps = %v, want 10", got)
	}
	if gbps(100, 0) != 0 {
		t.Fatal("gbps zero duration")
	}
	if kb(2048) != 2 {
		t.Fatal("kb wrong")
	}
}

// TestCheapExperimentsProduceTables runs the fast deterministic experiments
// end to end.
func TestCheapExperimentsProduceTables(t *testing.T) {
	for _, id := range []string{"table1", "resources"} {
		tables, err := Run(id, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

// TestFig1SmallScale runs a miniature fig1 to exercise a full
// simulation-backed experiment in the unit-test suite.
func TestFig1SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := DefaultOptions()
	o.Scale = 0.25
	tables, err := Run("fig1", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig1 produced %d tables, want 2", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) != 6 {
			t.Fatalf("fig1 table %q has %d rows, want 6 threshold points", tbl.Title, len(tbl.Rows))
		}
	}
}

// renderTables flattens experiment output to one comparable string.
func renderTables(tables []*Table) string {
	var b strings.Builder
	for _, tbl := range tables {
		b.WriteString(tbl.String())
	}
	return b.String()
}

// TestDeterminismSameSeed is the determinism regression: the same
// experiment with the same seed must render byte-identical tables, the
// property the whole evaluation (and the faults subsystem) relies on.
func TestDeterminismSameSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := DefaultOptions()
	o.Scale = 0.25
	o.OfflineEpisodes = 4
	for _, id := range []string{"fig8", "robust-linkfail"} {
		run := func() string {
			tables, err := Run(id, o)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			return renderTables(tables)
		}
		a, b := run(), run()
		if a != b {
			t.Errorf("%s: same-seed runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", id, a, b)
		}
	}
}

// TestDeterminismAcrossGOMAXPROCS pins the pooling invariant that the packet
// and event free lists are per-Network: robust-linkfail fans its policy runs
// out through runArms, so if a pool were ever shared between those
// concurrent Networks, allocation order (and with it packet identity under
// reuse) would depend on worker interleaving. The rendered tables must be
// byte-identical whether the runs are serialized (GOMAXPROCS=1) or fully
// parallel.
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := DefaultOptions()
	o.Scale = 0.25
	o.OfflineEpisodes = 4
	run := func() string {
		tables, err := Run("robust-linkfail", o)
		if err != nil {
			t.Fatal(err)
		}
		return renderTables(tables)
	}
	prev := runtime.GOMAXPROCS(1)
	serial := run()
	runtime.GOMAXPROCS(prev)
	parallel := run()
	if serial != parallel {
		t.Errorf("GOMAXPROCS=1 vs %d runs differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
			prev, serial, parallel)
	}
}

// TestRobustExperimentsSmallScale exercises the robustness suite end to
// end: every robust-* experiment must produce a populated comparison table.
func TestRobustExperimentsSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := DefaultOptions()
	o.Scale = 0.25
	o.OfflineEpisodes = 4
	for _, id := range []string{"robust-linkfail", "robust-flap", "robust-telemetry"} {
		tables, err := Run(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) != 1 || len(tables[0].Rows) < 2 {
			t.Fatalf("%s: want one table with >=2 policy rows, got %v", id, tables)
		}
		for _, row := range tables[0].Rows {
			if len(row) != len(tables[0].Cols) {
				t.Errorf("%s: row %v does not match columns %v", id, row, tables[0].Cols)
			}
		}
	}
}

// TestRobustLinkfailBrownout: -fault-degrade adds a brownout of a second
// uplink to robust-linkfail's fault plan. The table must say so, and its
// rows must move against the undegraded run's (at seed 1 and scale 0.25
// only SECN1's row moves).
func TestRobustLinkfailBrownout(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	o := DefaultOptions()
	o.Scale, o.OfflineEpisodes = 0.25, 4
	plain, err1 := Run("robust-linkfail", o)
	o.Faults.Degrade = 0.5
	degraded, err2 := Run("robust-linkfail", o)
	if err := errors.Join(err1, err2); err != nil {
		t.Fatal(err)
	}
	if want := "brownout of a second uplink: 50% of nominal"; !slices.Contains(degraded[0].Notes, want) {
		t.Errorf("notes %q lack %q", degraded[0].Notes, want)
	}
	if slices.EqualFunc(degraded[0].Rows, plain[0].Rows, slices.Equal[[]string]) {
		t.Errorf("rows %v are the undegraded run's: the brownout did not act", degraded[0].Rows)
	}
}

// TestPoliciesConstructible sanity-checks the policy constructors.
func TestPoliciesConstructible(t *testing.T) {
	for _, p := range []Policy{secn0(), secn1(), secn2(25), vendor(), accPolicy()} {
		if p.Name == "" {
			t.Error("policy without name")
		}
		if p.Static != nil {
			if err := p.Static.Validate(); err != nil {
				t.Errorf("%s: %v", p.Name, err)
			}
		}
	}
}
