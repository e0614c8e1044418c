package main

import (
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"github.com/reprolab/face/internal/bench"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.quick.golden from this build's output")

// TestPaperTablesGolden holds the paper's tables still: the simulated runs
// are deterministic, so any change to replacement order, device model or
// recovery shows up as a diff against the committed file.
func TestPaperTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Table 3, Figure 4 and Table 6 at the quick scale")
	}
	const golden = "testdata/paper.quick.golden"
	var out, errOut strings.Builder
	if code := run([]string{"-quick", "table3", "fig4", "table6"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("paper tables differ from %s (-update rewrites it)\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

func TestPoliciesText(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"policies"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, p := range []string{"face", "face+gr", "face+gsc", "lc", "wt", "none"} {
		if !strings.Contains(out.String(), p) {
			t.Fatalf("policies output missing %q:\n%s", p, out.String())
		}
	}
}

func TestPoliciesJSON(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-json", "policies"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	// Every -json invocation emits the same versioned envelope.
	var doc struct {
		Schema      string `json:"schema"`
		Experiments struct {
			Policies []string `json:"policies"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if doc.Schema != bench.ReportSchema {
		t.Fatalf("schema = %q", doc.Schema)
	}
	if len(doc.Experiments.Policies) < 6 {
		t.Fatalf("policies = %v", doc.Experiments.Policies)
	}
}

func TestTable1JSONUsesEnvelope(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-json", "table1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var doc struct {
		Schema      string         `json:"schema"`
		Experiments map[string]any `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if doc.Schema != bench.ReportSchema || doc.Experiments["table1"] == nil {
		t.Fatalf("envelope malformed: schema=%q keys=%v", doc.Schema, doc.Experiments)
	}
}

func TestTable1Text(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"table1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Table 1") {
		t.Fatalf("table1 output malformed:\n%s", out.String())
	}
}

// TestUnknownExperiment: a bad name anywhere in the list — the retired
// ablations included — exits 1 before any experiment runs.
func TestUnknownExperiment(t *testing.T) {
	for _, name := range []string{"nope", "wal", "shards", "obs", "trace"} {
		var out, errOut strings.Builder
		if code := run([]string{"-quick", "table1", name}, &out, &errOut); code != 1 {
			t.Fatalf("%s: exit %d, want 1", name, code)
		}
		if out.Len() != 0 || !strings.Contains(errOut.String(), name) {
			t.Fatalf("%s: stdout %q, stderr %q", name, out.String(), errOut.String())
		}
	}
}

func TestSeveralExperiments(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"policies", "table1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if p, t1 := strings.Index(out.String(), "Registered cache policies"), strings.Index(out.String(), "Table 1"); p < 0 || t1 < p {
		t.Fatalf("experiments missing or out of argument order:\n%s", out.String())
	}
}
