package enclosure_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests guards the workflow's targeted test steps
// against renames: `go test -run X` passes with "no tests to run" when
// X matches nothing, so a renamed test would silently empty a step.
// Every top-level alternative of each `go test ./internal/<pkg>/ -run
// '…'` in the workflow must match a test function of that package.
func TestCIRunPatternsMatchTests(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	steps := regexp.MustCompile(`go test\b[^\n]*?\s\./(internal/[\w/]+?)/?\s+-run\s+'([^']*)'`).
		FindAllStringSubmatch(string(data), -1)
	if len(steps) == 0 {
		t.Fatal("found no `go test ./internal/<pkg>/ -run` step: the workflow and this parser disagree")
	}
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)\w*)\(`)
	for _, step := range steps {
		dir, pattern := step[1], step[2]
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
		}
		for _, alt := range topLevelAlternatives(pattern) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml: ./%s -run alternative %q: %v", dir, alt, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml: ./%s -run alternative %q matches no test in the package", dir, alt)
			}
		}
	}
}

// TestCIRunsNoPython keeps the workflow's checks typed: a result check
// belongs in a Go test over the typed results, where `go test ./...`
// runs it locally, not in an inline script only CI executes.
func TestCIRunsNoPython(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	if loc := regexp.MustCompile(`\bpython3?\b`).FindIndex(data); loc != nil {
		line := 1 + strings.Count(string(data[:loc[0]]), "\n")
		t.Errorf("ci.yml:%d runs python; write the check as a Go test instead", line)
	}
}

// topLevelAlternatives splits the first element of a -run pattern (the
// part go test matches against top-level test names) at the '|'s that
// are outside any group.
func topLevelAlternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pattern {
		switch {
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '/' && depth == 0:
			return append(alts, pattern[start:i])
		case c == '|' && depth == 0:
			alts = append(alts, pattern[start:i])
			start = i + 1
		}
	}
	return append(alts, pattern[start:])
}
