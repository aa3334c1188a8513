package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	pathLike = regexp.MustCompile(`^(\./)?[\w.-]+(/[\w.*-]+)+/?(:\d+)?$`)
	cmdEnd   = regexp.MustCompile(`\s(\||>|&&|;|#)\s.*`)
)

// TestDocsReferencesExist: every repo path README.md, DESIGN.md and
// EXPERIMENTS.md put in backticks (internal/exp/robust.go, or psim/plan.go
// under internal/) exists, and every -flag they pass to accsim, in
// backticks or in a code block, is one accsim defines.
func TestDocsReferencesExist(t *testing.T) {
	src, err := os.ReadFile("cmd/accsim/main.go")
	if err != nil {
		t.Fatal(err)
	}
	// go test's own flags, which the documents also name on their own.
	flags := map[string]bool{"short": true, "race": true, "memprofile": true, "benchmem": true, "benchtime": true}
	for _, m := range regexp.MustCompile(`flag\.\w+\("([\w-]+)"`).FindAllStringSubmatch(string(src), -1) {
		flags[m[1]] = true
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for n, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			spans := []string{line}
			if !fenced {
				spans = nil
				for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
					spans = append(spans, m[1])
					if !pathExists(m[1]) {
						t.Errorf("%s:%d: `%s` names no file or directory of the repo", doc, n+1, m[1])
					}
				}
			}
			for _, s := range spans {
				for _, f := range accsimFlags(s, fenced) {
					if !flags[f] {
						t.Errorf("%s:%d: accsim has no -%s flag (in %q)", doc, n+1, f, s)
					}
				}
			}
		}
	}
}

// pathExists reports whether a span that looks like a repo path — its first
// element a top-level entry or a package under internal/ — exists; spans
// that are not repo paths pass.
func pathExists(s string) bool {
	if !pathLike.MatchString(s) {
		return true
	}
	p, _, _ := strings.Cut(strings.TrimSuffix(strings.TrimPrefix(s, "./"), "/"), ":")
	first, _, _ := strings.Cut(p, "/")
	for _, root := range []string{".", "internal"} {
		if m, _ := filepath.Glob(filepath.Join(root, first)); len(m) > 0 {
			m, _ = filepath.Glob(filepath.Join(root, p))
			return len(m) > 0
		}
	}
	return true
}

// accsimFlags returns the flag names a span passes to accsim: every -name
// after an accsim command up to its end, or, for an inline span that starts
// with a flag, every -name in it.
func accsimFlags(s string, fenced bool) []string {
	fields := strings.Fields(cmdEnd.ReplaceAllString(s, ""))
	i := slices.IndexFunc(fields, func(f string) bool { return f == "accsim" || strings.HasSuffix(f, "/accsim") })
	if i < 0 && (fenced || len(fields) == 0 || !strings.HasPrefix(fields[0], "-")) {
		return nil
	}
	var out []string
	for _, f := range strings.FieldsFunc(strings.Join(fields[i+1:], " "), func(r rune) bool { return r == ' ' || r == '/' }) {
		name, _, _ := strings.Cut(strings.TrimPrefix(f, "-"), "=")
		if strings.HasPrefix(f, "-") && name != "" && name[0] >= 'a' && name[0] <= 'z' {
			out = append(out, name)
		}
	}
	return out
}
