package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestReadmeDocumentsEveryRule keeps the README's rule table honest in
// both directions: the table lists exactly the rules `flovlint
// -list-rules` prints, each with its exact one-line doc, so registering,
// rewording or deleting an analyzer without updating the docs fails the
// build.
func TestReadmeDocumentsEveryRule(t *testing.T) {
	var buf bytes.Buffer
	listRules(&buf)
	listed := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		name, doc, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable -list-rules line %q", line)
		}
		listed[name] = strings.TrimSpace(doc)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| Rule | Proves / forbids |\n|---|---|\n")
	if !ok {
		t.Fatal("README has no rule table")
	}
	documented := make(map[string]string)
	for _, row := range strings.Split(table, "\n") {
		if !strings.HasPrefix(row, "|") {
			break
		}
		cells := strings.Split(strings.Trim(row, "|"), "|")
		if len(cells) != 2 {
			t.Fatalf("unparseable rule table row %q", row)
		}
		documented[strings.Trim(strings.TrimSpace(cells[0]), "`")] = strings.TrimSpace(cells[1])
	}

	for name, doc := range listed {
		got, ok := documented[name]
		switch {
		case !ok:
			t.Errorf("README rule table does not list `%s`", name)
		case got != doc:
			t.Errorf("README rule table out of date for %s: has %q, want %q", name, got, doc)
		}
	}
	for name := range documented {
		if _, ok := listed[name]; !ok {
			t.Errorf("README rule table lists `%s`, which -list-rules does not print", name)
		}
	}
}
