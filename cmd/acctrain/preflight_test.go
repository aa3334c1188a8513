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
const asMain = "ACCTRAIN_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestPreflightRejects: a bad flag, a value training would replace, or an
// output directory that does not exist exits 2 before any training, and
// the first stderr line says which.
func TestPreflightRejects(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "m.accmodel")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-bogus"}, "flag provided but not defined: -bogus"},
		{[]string{"-episodes", "x"}, `invalid value "x" for flag -episodes`},
		{[]string{"-episodes", "0"}, "acctrain: -episodes must be at least 1"},
		{[]string{"-episode-time", "-1ms"}, "acctrain: -episode-time must be positive"},
		{[]string{"-max-senders", "1"}, "acctrain: -max-senders must be at least 2"},
		{[]string{"-max-flows", "0"}, "acctrain: -max-flows must be at least 1"},
		{[]string{"-o", missing}, "acctrain: -o: directory " + filepath.Dir(missing) + " does not exist"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), asMain+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		code := 0
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("acctrain %v: %v", tc.args, err)
		}
		if first, _, _ := strings.Cut(stderr.String(), "\n"); code != 2 || !strings.HasPrefix(first, tc.want) {
			t.Errorf("acctrain %v exited %d with stderr %q; want 2 and a first line starting %q", tc.args, code, stderr.String(), tc.want)
		}
	}
}
