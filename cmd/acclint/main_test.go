package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// asMain, when set in the environment, makes the test binary run main with
// its own arguments instead of the tests, so a test can drive the real
// flag handling and observe the exit status.
const asMain = "ACCLINT_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// acclint runs main in a child process and returns its exit code, stdout
// and stderr.
func acclint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMain+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("acclint %v: %v", args, err)
	return 0, "", ""
}

// TestPreflightRejects: a bad flag, an unknown check or a path that is not
// a package exits 2, and the first stderr line says which.
func TestPreflightRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
		{[]string{"-checks", "codecsym", "./testdata/clean"}, `acclint: unknown check "codecsym"`},
		{[]string{"./testdata/missing"}, "acclint: lint: "},
		{[]string{"/elsewhere/..."}, "acclint: lint: pattern"},
	} {
		code, _, stderr := acclint(t, tc.args...)
		if first, _, _ := strings.Cut(stderr, "\n"); code != 2 || !strings.HasPrefix(first, tc.want) {
			t.Errorf("acclint %v exited %d with stderr %q; want 2 and a first line starting %q", tc.args, code, stderr, tc.want)
		}
	}
}

// TestJSON: -json prints an empty array for a clean package, and an
// ignore naming a retired check is a diagnostic, exit 1.
func TestJSON(t *testing.T) {
	if code, stdout, stderr := acclint(t, "-json", "./testdata/clean"); code != 0 || strings.TrimSpace(stdout) != "[]" {
		t.Errorf("acclint -json on a clean package exited %d with stdout %q, stderr %q; want 0 and []", code, stdout, stderr)
	}
	code, stdout, _ := acclint(t, "-json", "./testdata/retired")
	if code != 1 || !strings.Contains(stdout, `unknown check \"codecsym\"`) {
		t.Errorf("acclint -json on an ignore naming codecsym exited %d with %s; want 1 and an unknown-check diagnostic", code, stdout)
	}
}
