package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/reprolab/face/internal/bench"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.quick.golden from this build's output")

const golden = "testdata/paper.quick.golden"

// TestPaperTablesGolden holds the paper's tables still: the simulated runs
// are deterministic, so any change to replacement order, device model or
// recovery shows up as a diff against the committed file.  A run whose
// tables lose the paper's orderings (checkPaperShape) fails before -update
// can write it.
func TestPaperTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every numbered table and figure at the quick scale")
	}
	var out, errOut strings.Builder
	if code := run(append([]string{"-quick"}, paperExperiments...), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	checkPaperShape(t, out.String())
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

// paperExperiments is what the golden holds: every experiment that prints
// a numbered table or figure except the static Table 1, in one run that
// builds the database once.  The experiments the file held first come
// first, so adding one appends to it.
var paperExperiments = []string{"table3", "fig4", "table6", "table4", "table5", "fig5", "fig6"}

// checkPaperShape fails t unless the text of the paper experiments keeps
// the orderings the paper reports, which hold whatever the exact figures:
//   - Table 3(a): in every column FaCE+GSC's hit ratio is at least FaCE's
//     and FaCE's at least FaCE+GR's, and LC hits more often than FaCE;
//   - Figure 4: on the Samsung 470 LC is slower than FaCE, and FaCE+GSC
//     faster;
//   - Table 4: LC saturates its flash device and FaCE+GSC does not, yet
//     FaCE+GSC issues more flash I/Os per second;
//   - Table 5: the first flash increment buys more than the first DRAM one;
//   - Figure 5: FaCE+GSC gains more than LC from 4 to 8 disks;
//   - Table 6 and Figure 6: FaCE+GSC restarts sooner than HDD-only, and in
//     the first bucket where it serves transactions it serves more.
func checkPaperShape(t *testing.T, text string) {
	t.Helper()
	hit := paperTable(t, text, "Table 3(a)")
	tpmC := paperTable(t, text, "Figure 4: transaction throughput (tpmC) vs cache size, Samsung 470")
	for col := range hit["face"] {
		if gsc, face, gr := hit["face+gsc"][col], hit["face"][col], hit["face+gr"][col]; gsc < face || face < gr {
			t.Errorf("Table 3(a) column %d: face+gsc %v, face %v, face+gr %v, want descending", col, gsc, face, gr)
		}
		if lc, face := hit["lc"][col], hit["face"][col]; lc <= face {
			t.Errorf("Table 3(a) column %d: lc hit ratio %v, not above face's %v", col, lc, face)
		}
		if lc, face := tpmC["lc"][col], tpmC["face"][col]; lc >= face {
			t.Errorf("Figure 4 (Samsung 470) column %d: lc %v tpmC, not below face's %v", col, lc, face)
		}
		if gsc, face := tpmC["face+gsc"][col], tpmC["face"][col]; gsc <= face {
			t.Errorf("Figure 4 (Samsung 470) column %d: face+gsc %v tpmC, not above face's %v", col, gsc, face)
		}
	}
	util := paperTable(t, text, "Table 4(a)")
	iops := paperTable(t, text, "Table 4(b)")
	for col := range util["lc"] {
		if lc, gsc := util["lc"][col], util["face+gsc"][col]; lc != 100 || gsc >= lc {
			t.Errorf("Table 4(a) column %d: lc at %v%%, face+gsc at %v%%, want lc at 100%% and face+gsc below", col, lc, gsc)
		}
		if lc, gsc := iops["lc"][col], iops["face+gsc"][col]; gsc <= lc {
			t.Errorf("Table 4(b) column %d: face+gsc %v IOPS, not above lc's %v", col, gsc, lc)
		}
	}
	t5 := numericRows(t, text, "Table 5")
	if dram, flash := column(t, t5, "More DRAM", 0), column(t, t5, "More Flash", 0); flash <= dram {
		t.Errorf("Table 5 x1: More Flash %v tpmC, not above More DRAM's %v", flash, dram)
	}
	f5 := numericRows(t, text, "Figure 5")
	gain := func(series string) float64 { return column(t, f5, series, 1) - column(t, f5, series, 0) }
	if gsc, lc := gain("FaCE+GSC"), gain("LC"); gsc <= lc {
		t.Errorf("Figure 5: FaCE+GSC gains %v tpmC from 4 to 8 disks, not more than LC's %v", gsc, lc)
	}
	rows := tableRows(t, text, "Table 6")
	if len(rows) == 0 {
		t.Fatal("Table 6 has no rows")
	}
	for _, row := range rows {
		face, err1 := time.ParseDuration(row[1])
		hdd, err2 := time.ParseDuration(row[3])
		if err1 != nil || err2 != nil {
			t.Fatalf("Table 6 row %q: %v %v", row, err1, err2)
		}
		if face >= hdd {
			t.Errorf("Table 6 interval %s: FaCE+GSC restart %v, not shorter than HDD-only's %v", row[0], face, hdd)
		}
	}
	// Figure 6's buckets rise and fall as the caches warm, so only the
	// first bucket in which FaCE+GSC serves transactions is compared.
	f6 := numericRows(t, text, "Figure 6")
	first := slices.IndexFunc(f6["FaCE+GSC"], func(v float64) bool { return v > 0 })
	if first < 0 {
		t.Error("Figure 6: FaCE+GSC serves no transaction after the restart")
	} else if gsc, hdd := f6["FaCE+GSC"][first], column(t, f6, "HDD-only", first); gsc <= hdd {
		t.Errorf("Figure 6 bucket %d: FaCE+GSC %v tpmC, not above HDD-only's %v", first, gsc, hdd)
	}
	at := strings.Index(text, "Restart time: ")
	if at < 0 {
		t.Fatal("Figure 6 states no restart times")
	}
	var faceRestart, hddRestart string
	if _, err := fmt.Sscanf(text[at:], "Restart time: FaCE+GSC %s HDD-only %s", &faceRestart, &hddRestart); err != nil {
		t.Fatalf("Figure 6 restart times: %v", err)
	}
	face, err1 := time.ParseDuration(strings.TrimSuffix(faceRestart, ","))
	hdd, err2 := time.ParseDuration(hddRestart)
	if err1 != nil || err2 != nil {
		t.Fatalf("Figure 6 restart times: %v %v", err1, err2)
	}
	if face >= hdd {
		t.Errorf("Figure 6: FaCE+GSC restart %v, not shorter than HDD-only's %v", face, hdd)
	}
}

// paperTable returns the numeric rows of the policy table titled prefix in
// text, each policy's values by column.
func paperTable(t *testing.T, text, prefix string) map[string][]float64 {
	t.Helper()
	table := numericRows(t, text, prefix)
	for _, series := range []string{"lc", "face", "face+gr", "face+gsc"} {
		if len(table[series]) == 0 || len(table[series]) != len(table["face"]) {
			t.Fatalf("%s: series %s has %d columns, face %d", prefix, series, len(table[series]), len(table["face"]))
		}
	}
	return table
}

// numericRows returns the rows of the table titled prefix in text, each
// row's values by column, keyed by its name: the words before its first
// number ("More DRAM").
func numericRows(t *testing.T, text, prefix string) map[string][]float64 {
	t.Helper()
	table := map[string][]float64{}
	for _, row := range tableRows(t, text, prefix) {
		name := 1
		for name < len(row) {
			if _, err := strconv.ParseFloat(row[name], 64); err == nil {
				break
			}
			name++
		}
		key := strings.Join(row[:name], " ")
		for _, f := range row[name:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatalf("%s row %q: %v", prefix, row, err)
			}
			table[key] = append(table[key], v)
		}
	}
	return table
}

// column returns series' value in column col of table, failing t when
// the table has no such value.
func column(t *testing.T, table map[string][]float64, series string, col int) float64 {
	t.Helper()
	if col >= len(table[series]) {
		t.Fatalf("series %q has %d columns, want column %d", series, len(table[series]), col)
	}
	return table[series][col]
}

// tableRows returns the fields of the rows of the table titled prefix in
// text: the lines after its dashed rule, up to a blank line or one that is
// not a row ("HDD-only reference: ...").
func tableRows(t *testing.T, text, prefix string) [][]string {
	t.Helper()
	at := strings.Index(text, prefix)
	if at < 0 {
		t.Fatalf("no table titled %q", prefix)
	}
	lines := strings.Split(text[at:], "\n")
	i := 1
	for i < len(lines) && !strings.HasPrefix(lines[i], "---") {
		i++
	}
	var rows [][]string
	for _, line := range lines[min(i+1, len(lines)):] {
		f := strings.Fields(line)
		if len(f) < 2 || strings.Contains(line, ":") {
			break
		}
		rows = append(rows, f)
	}
	return rows
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
