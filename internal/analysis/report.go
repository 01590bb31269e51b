package analysis

import (
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
)

// SARIF wire structs — the minimal subset of SARIF 2.1.0 that GitHub
// code scanning and most viewers consume. SARIF is flovlint's one
// machine-readable format; CI publishes the log on every run.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// RuleDocs maps analyzer names to their one-line docs, for SARIF rule
// metadata.
func RuleDocs() map[string]string {
	docs := make(map[string]string)
	for _, a := range Analyzers() {
		docs[a.Name] = a.Doc
	}
	for _, a := range ModuleAnalyzers() {
		docs[a.Name] = a.Doc
	}
	return docs
}

// WriteSARIF emits the findings as a SARIF 2.1.0 log.
func WriteSARIF(w io.Writer, root string, diags []Diagnostic) error {
	docs := RuleDocs()
	var names []string
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	rules := make([]sarifRule, 0, len(names))
	for _, name := range names {
		rules = append(rules, sarifRule{ID: name, ShortDescription: sarifText{docs[name]}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Rule,
			Level:   "error",
			Message: sarifText{d.Msg},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: relPath(root, d.Pos.Filename)},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "flovlint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath renders filename relative to the module root with forward
// slashes, falling back to the input when it lies outside the root.
func relPath(root, filename string) string {
	rel, err := filepath.Rel(root, filename)
	if err != nil || rel == "" {
		return filepath.ToSlash(filename)
	}
	if len(rel) >= 2 && rel[:2] == ".." {
		return filepath.ToSlash(filename)
	}
	return filepath.ToSlash(rel)
}
