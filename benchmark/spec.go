package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// specFile is the benchmark's contract at the repository root.  The
// program reads its metric names, units, directions and bounds from it, so
// the file and what is emitted cannot drift apart.
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is the part of the contract the program uses.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*spec, error) {
	b, err := os.ReadFile(specFile)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark contract (run from the repository root): %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			return nil, fmt.Errorf("%s names workload %q, which this program does not have", specFile, w.Name)
		}
	}
	return &s, nil
}

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passResult is one run of one workload in one pass; its JSON form is the
// line the acceptance driver reads.
type passResult struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// pick selects the listed metrics from got.  An end-to-end metric must have
// been measured; a per-layer metric a workload does not exercise reads 0.
func pick(list []metricSpec, got map[string]float64, require bool) (map[string]value, error) {
	out := make(map[string]value, len(list))
	for _, m := range list {
		v, ok := got[m.Name]
		if !ok && require {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// runMeta is recorded in every result file.
type runMeta struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Commit     string  `json:"commit"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Filesystem string  `json:"filesystem"`
}

func newMeta(seed int64, seconds float64, tmp string) runMeta {
	m := runMeta{Seed: seed, Seconds: seconds, Commit: "unknown", NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Filesystem: fsType(tmp)}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					m.Commit += "+dirty"
				}
			}
		}
	}
	return m
}

// fsType names the filesystem the database files live on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// resetPeakRSS returns freed memory to the operating system and restarts the
// kernel's peak count, so that a pass's peak is its own although earlier
// passes ran in the same process.  Where the kernel refuses, the peak stays
// the process's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set since the last reset, from
// the kernel.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// series is every run's value of one metric on one workload.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Meta runMeta `json:"meta"`
	// Results is keyed by workload, then by metric name.
	Results map[string]map[string]*series `json:"results"`
	// Attempted and Failed are totals over every run of the workload.
	Attempted map[string]int64 `json:"attempted"`
	Failed    map[string]int64 `json:"failed"`
}

func newResultFile(meta runMeta) *resultFile {
	return &resultFile{Meta: meta, Results: map[string]map[string]*series{},
		Attempted: map[string]int64{}, Failed: map[string]int64{}}
}

func (f *resultFile) add(workload string, p passResult) {
	if f.Results[workload] == nil {
		f.Results[workload] = map[string]*series{}
	}
	for name, v := range p.Metrics {
		s := f.Results[workload][name]
		if s == nil {
			s = &series{Unit: v.Unit}
			f.Results[workload][name] = s
		}
		s.Values = append(s.Values, v.Value)
		s.Q1, s.Median, s.Q3 = quartiles(s.Values)
	}
	f.Attempted[workload] += p.Attempted
	f.Failed[workload] += p.Failed
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print lists every metric of every workload by name, with its unit.
func (f *resultFile) print(w io.Writer, sp *spec) {
	for _, wl := range sp.Workloads {
		res := f.Results[wl.Name]
		if res == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s  (%d operations attempted, %d failed)\n", wl.Name, f.Attempted[wl.Name], f.Failed[wl.Name])
		for _, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
			for _, m := range list {
				if s := res[m.Name]; s != nil {
					fmt.Fprintf(w, "  %-34s %16.4f %-6s", m.Name, s.Median, s.Unit)
					if len(s.Values) > 1 {
						fmt.Fprintf(w, "  [q1 %.4f, q3 %.4f, n=%d]", s.Q1, s.Q3, len(s.Values))
					}
					fmt.Fprintln(w)
				}
			}
		}
	}
}

// verdict compares medians a (before) and b (after) of one metric.
func verdict(m metricSpec, a, b *series) string {
	if spread(a.Values) > m.Bound || spread(b.Values) > m.Bound {
		return "unresolved"
	}
	change := ratio(b.Median-a.Median, a.Median)
	if m.Better == "lower" {
		change = -change
	}
	switch {
	case change < -m.Bound:
		return "worse"
	case change > m.Bound:
		return "better"
	}
	return "same"
}

// compare prints, per workload and end-to-end metric, both medians, the
// change, the bound and the verdict.  It reports whether any is worse.
func compare(w io.Writer, sp *spec, pathA, pathB string) (worse bool, err error) {
	var files [2]resultFile
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(b, &files[i]); err != nil {
			return false, fmt.Errorf("%s: %w", p, err)
		}
	}
	names := make([]string, 0, len(files[0].Results))
	for name := range files[0].Results {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-10s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wl := range names {
		for _, m := range sp.EndToEnd {
			a, b := files[0].Results[wl][m.Name], files[1].Results[wl][m.Name]
			if a == nil || b == nil {
				continue
			}
			v := verdict(m, a, b)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-10s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				wl, m.Name, a.Median, b.Median, 100*ratio(b.Median-a.Median, a.Median), 100*m.Bound, v)
		}
		// More failures is worse whatever the metrics say.
		fa := ratio(float64(files[0].Failed[wl]), float64(files[0].Attempted[wl]))
		fb := ratio(float64(files[1].Failed[wl]), float64(files[1].Attempted[wl]))
		if fb > fa {
			worse = true
			fmt.Fprintf(w, "%-10s %-18s %14.6f %14.6f %26s\n", wl, "fail_share", fa, fb, "worse")
		}
	}
	return worse, nil
}
