package analysis

import (
	"bytes"
	"encoding/json"
	"testing"
)

// sarifOut is the decoded shape of a flovlint SARIF log, for the
// round trips below.
type sarifOut struct {
	Version string `json:"version"`
	Runs    []struct {
		Tool struct {
			Driver struct {
				Name  string `json:"name"`
				Rules []struct {
					ID               string `json:"id"`
					ShortDescription struct {
						Text string `json:"text"`
					} `json:"shortDescription"`
				} `json:"rules"`
			} `json:"driver"`
		} `json:"tool"`
		Results []struct {
			RuleID  string `json:"ruleId"`
			Level   string `json:"level"`
			Message struct {
				Text string `json:"text"`
			} `json:"message"`
			Locations []struct {
				PhysicalLocation struct {
					ArtifactLocation struct {
						URI string `json:"uri"`
					} `json:"artifactLocation"`
					Region struct {
						StartLine   int `json:"startLine"`
						StartColumn int `json:"startColumn"`
					} `json:"region"`
				} `json:"physicalLocation"`
			} `json:"locations"`
		} `json:"results"`
	} `json:"runs"`
}

// roundTripSARIF writes diags as a SARIF log rooted at the module root
// and checks the envelope: version, one run, the flovlint driver, and
// every registered rule listed with its one-line doc. It returns the
// decoded log and the raw bytes.
func roundTripSARIF(t *testing.T, diags []Diagnostic) (sarifOut, []byte) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, root, diags); err != nil {
		t.Fatal(err)
	}
	var log sarifOut
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("malformed log: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "flovlint" {
		t.Errorf("tool name: %s", run.Tool.Driver.Name)
	}
	docs := RuleDocs()
	if len(run.Tool.Driver.Rules) != len(docs) {
		t.Errorf("log lists %d rules, %d are registered", len(run.Tool.Driver.Rules), len(docs))
	}
	for _, r := range run.Tool.Driver.Rules {
		if doc, ok := docs[r.ID]; !ok || r.ShortDescription.Text != doc {
			t.Errorf("rule %s: descriptor %q, registered doc %q (registered: %v)", r.ID, r.ShortDescription.Text, doc, ok)
		}
	}
	return log, buf.Bytes()
}

// checkSARIFResults checks that each result keeps its finding's rule,
// message and position, with a URI relative to the module root in the
// rule's fixture file, and that every rule in wantFile has a result.
func checkSARIFResults(t *testing.T, diags []Diagnostic, wantFile map[string]string) {
	t.Helper()
	log, _ := roundTripSARIF(t, diags)
	results := log.Runs[0].Results
	if len(results) != len(diags) {
		t.Fatalf("want %d results, got %d", len(diags), len(results))
	}
	seen := map[string]bool{}
	for i, r := range results {
		d := diags[i]
		seen[r.RuleID] = true
		if r.RuleID != d.Rule || r.Message.Text != d.Msg || r.Level != "error" {
			t.Errorf("result %d mangled: %s/%s %q, want %s %q", i, r.RuleID, r.Level, r.Message.Text, d.Rule, d.Msg)
		}
		if len(r.Locations) != 1 {
			t.Errorf("result %d: want 1 location, got %d", i, len(r.Locations))
			continue
		}
		loc := r.Locations[0].PhysicalLocation
		if want := "internal/analysis/testdata/" + wantFile[d.Rule]; loc.ArtifactLocation.URI != want {
			t.Errorf("result %d (%s): uri %s, want %s", i, d.Rule, loc.ArtifactLocation.URI, want)
		}
		if loc.Region.StartLine != d.Pos.Line || loc.Region.StartColumn != d.Pos.Column {
			t.Errorf("result %d: region %d:%d, want %d:%d", i, loc.Region.StartLine, loc.Region.StartColumn, d.Pos.Line, d.Pos.Column)
		}
	}
	for rule := range wantFile {
		if !seen[rule] {
			t.Errorf("fixtures yielded no %s result", rule)
		}
	}
}

// TestWriteSARIF checks a clean run's log: the full envelope and rule
// list, and an empty results array rather than null, which code
// scanning uploads reject.
func TestWriteSARIF(t *testing.T) {
	log, raw := roundTripSARIF(t, nil)
	if n := len(log.Runs[0].Results); n != 0 {
		t.Fatalf("want no results, got %d", n)
	}
	if !bytes.Contains(raw, []byte(`"results": []`)) {
		t.Errorf("clean log should carry an empty results array:\n%s", raw)
	}
}

// TestNewRulesSARIF round-trips real statecov and hotalloc findings
// from their fixtures through the SARIF log.
func TestNewRulesSARIF(t *testing.T) {
	diags := RunModule(loadSnapcovModule(t), []*ModuleAnalyzer{StatecovAnalyzer})
	diags = append(diags, RunModule(loadHotpathModule(t), []*ModuleAnalyzer{HotAllocAnalyzer})...)
	checkSARIFResults(t, diags, map[string]string{
		"statecov": "snapcov/snapfix.go",
		"hotalloc": "hotpath/hotfix.go",
	})
}

// TestPurityUnitsafeSARIF round-trips real purity findings from their
// fixture through the SARIF log. (The name predates the removal of the
// unitsafe rule, whose findings it also covered.)
func TestPurityUnitsafeSARIF(t *testing.T) {
	m, _ := loadPurityModule(t)
	diags := RunModule(m, []*ModuleAnalyzer{PurityAnalyzer})
	checkSARIFResults(t, diags, map[string]string{
		"purity": "purity/purefix.go",
	})
}
