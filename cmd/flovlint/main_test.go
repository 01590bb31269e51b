package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestReadmeDocumentsEveryRule keeps the README's rule table honest:
// every rule `flovlint -list-rules` prints must appear there by name
// and with its exact one-line doc, so registering or rewording an
// analyzer without updating the docs fails the build.
func TestReadmeDocumentsEveryRule(t *testing.T) {
	var buf bytes.Buffer
	listRules(&buf)
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readme)

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 11 {
		t.Fatalf("expected at least 11 rules, -list-rules printed %d lines", len(lines))
	}
	for _, line := range lines {
		name, doc, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable -list-rules line %q", line)
		}
		doc = strings.TrimSpace(doc)
		if !strings.Contains(text, "`"+name+"`") {
			t.Errorf("README does not mention rule `%s`", name)
		}
		if !strings.Contains(text, doc) {
			t.Errorf("README rule table out of date for %s: missing %q", name, doc)
		}
	}
}
