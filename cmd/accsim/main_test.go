package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// asMain, when set in the environment, makes the test binary run main with
// its own arguments instead of the tests, so a test can drive the real
// flag handling and observe the exit status.
const asMain = "ACCSIM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// accsim runs main in a child process and returns its exit code and stderr.
func accsim(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMain+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("accsim %v: %v", args, err)
	return 0, ""
}

// TestPreflightRejects: every argument error exits 2 with one line on
// stderr before any simulation runs.
func TestPreflightRejects(t *testing.T) {
	dir := t.TempDir()
	// A binary trace whose header claims 2^32 flows it does not hold.
	hostile := filepath.Join(dir, "hostile.bin")
	if err := os.WriteFile(hostile, []byte("ACCT\x01\x00\x00\x00\x00\x00\x00\x00\x80\x80\x80\x80\x10"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"unknown -exp":           {"-exp", "fig99"},
		"bad -fidelity":          {"-exp", "table1", "-fidelity", "fluid"},
		"-model with -episodes":  {"-exp", "table1", "-model", filepath.Join(dir, "m.accmodel"), "-episodes", "2"},
		"missing -resume file":   {"-resume", filepath.Join(dir, "missing.accsnap")},
		"-snap-at past horizon":  {"-snapshot", filepath.Join(dir, "w.accsnap"), "-snap-at", "1ms"},
		"hybrid where ignored":   {"-exp", "table1", "-fidelity", "hybrid"},
		"trace where ignored":    {"-exp", "fig6", "-record-trace", filepath.Join(dir, "x.bin")},
		"ignored under -exp all": {"-exp", "all", "-fidelity", "hybrid"},
		"replay where ignored":   {"-exp", "mix-collective", "-replay-trace", filepath.Join(dir, "t.bin")},
		"shards where ignored":   {"-exp", "fig8", "-shards", "4"},
		"hybrid on fig8":         {"-exp", "fig8", "-fidelity", "hybrid"},
		"hostile replay trace":   {"-exp", "mix-spec", "-replay-trace", hostile},
		"-scale 0":               {"-exp", "fig6", "-scale", "0"},
		"-scale -1":              {"-exp", "fig6", "-scale", "-1"},
		"-scale NaN":             {"-exp", "fig6", "-scale", "NaN"},
		"-scale +Inf":            {"-exp", "fig6", "-scale", "+Inf"},
		"-scale -Inf":            {"-exp", "fig6", "-scale", "-Inf"},
		"negative -episodes":     {"-exp", "fig6", "-episodes", "-1"},
		"negative -shards":       {"-snapshot", filepath.Join(dir, "w.accsnap"), "-shards", "-1"},
		"negative -obs-ring":     {"-exp", "table1", "-obs-ring", "-1"},
		"negative -fault-links":  {"-exp", "robust-flap", "-fault-links", "-1"},
		"negative -fault-stale":  {"-exp", "robust-telemetry", "-fault-stale", "-1"},
		"negative -fault-mtbf":   {"-exp", "robust-flap", "-fault-mtbf", "-1ms"},
		"negative -fault-mttr":   {"-exp", "robust-flap", "-fault-mttr", "-1ms"},
		"-fault-drop below 0":    {"-exp", "robust-telemetry", "-fault-drop", "-0.1"},
		"-fault-drop above 1":    {"-exp", "robust-telemetry", "-fault-drop", "1.5"},
		"-fault-drop NaN":        {"-exp", "robust-telemetry", "-fault-drop", "NaN"},
		"-fault-degrade 1":       {"-exp", "robust-linkfail", "-fault-degrade", "1"},
		"-fault-degrade below 0": {"-exp", "robust-linkfail", "-fault-degrade", "-0.5"},
		"-fault-degrade NaN":     {"-exp", "robust-linkfail", "-fault-degrade", "NaN"},
	} {
		code, stderr := accsim(t, args...)
		if lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n"); code != 2 || len(lines) != 1 || lines[0] == "" {
			t.Errorf("%s: accsim %v exited %d with stderr %q; want 2 and one line", name, args, code, stderr)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "x.bin")); err == nil {
		t.Error("a refused -record-trace still wrote its file")
	}
}

// TestPreflightAccepts: cheap valid runs, one of them at hybrid fidelity
// where it is read, exit 0.
func TestPreflightAccepts(t *testing.T) {
	for _, args := range [][]string{{"-exp", "table1"}, {"-exp", "mix-spec", "-fidelity", "hybrid"}} {
		if code, stderr := accsim(t, args...); code != 0 {
			t.Errorf("accsim %v exited %d: %s", args, code, stderr)
		}
	}
}
