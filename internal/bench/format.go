package bench

import (
	"fmt"
	"strings"
	"time"
)

// Text formatters: every experiment result can be rendered as the same kind
// of aligned text table the paper prints, so the facebench CLI and
// EXPERIMENTS.md share one source of truth.

func formatTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

func pct(v float64) string        { return fmt.Sprintf("%.1f", v*100) }
func fnum(v float64) string       { return fmt.Sprintf("%.0f", v) }
func fdur(d time.Duration) string { return d.Round(time.Millisecond).String() }

// flat renders a latency for table cells at microsecond resolution ("-"
// when the window recorded nothing).
func flat(d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return d.Round(time.Microsecond).String()
}

// wallclockMode reports whether the rows ask for the wall-clock headline
// columns (file backend, or the -wallclock flag).  Reports for the default
// in-memory simulated runs stay byte-identical.
func wallclockMode(rows []Result) bool {
	for _, r := range rows {
		if r.WallclockMode {
			return true
		}
	}
	return false
}

// FormatTable1 renders the device characteristics table.
func FormatTable1(rows []Table1Row) string {
	headers := []string{"Device", "Media", "RandRd IOPS", "RandWr IOPS", "SeqRd MB/s", "SeqWr MB/s", "GB", "$", "$/GB"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Name, r.Media,
			fnum(r.RandReadIOPS), fnum(r.RandWriteIOPS),
			fmt.Sprintf("%.1f", r.SeqReadMBps), fmt.Sprintf("%.1f", r.SeqWriteMBps),
			fmt.Sprintf("%.1f", r.CapacityGB), fnum(r.PriceUSD), fmt.Sprintf("%.2f", r.PricePerGB),
		})
	}
	return "Table 1: device price and performance characteristics\n" + formatTable(headers, out)
}

func sweepHeader(s SweepResult) []string {
	headers := []string{"Policy"}
	for _, f := range s.Fractions {
		headers = append(headers, fmt.Sprintf("%.0f%%", f*100))
	}
	return headers
}

// FormatTable3 renders the hit-ratio and write-reduction tables.
func FormatTable3(s SweepResult) string {
	var b strings.Builder
	b.WriteString("Table 3(a): flash cache hit ratio (% of DRAM buffer misses), by cache size (% of DB)\n")
	var rows [][]string
	for _, p := range s.Policies {
		row := []string{p.String()}
		for _, r := range s.Results[p] {
			row = append(row, pct(r.FlashHitRate))
		}
		rows = append(rows, row)
	}
	b.WriteString(formatTable(sweepHeader(s), rows))
	b.WriteString("\nTable 3(b): disk write reduction (% of dirty evictions), by cache size (% of DB)\n")
	rows = nil
	for _, p := range s.Policies {
		row := []string{p.String()}
		for _, r := range s.Results[p] {
			row = append(row, pct(r.WriteReduction))
		}
		rows = append(rows, row)
	}
	b.WriteString(formatTable(sweepHeader(s), rows))
	return b.String()
}

// FormatTable4 renders the flash device utilization and I/O throughput
// tables.
func FormatTable4(s SweepResult) string {
	var b strings.Builder
	b.WriteString("Table 4(a): flash cache device utilization (%), by cache size (% of DB)\n")
	var rows [][]string
	for _, p := range s.Policies {
		row := []string{p.String()}
		for _, r := range s.Results[p] {
			row = append(row, pct(r.FlashUtilization))
		}
		rows = append(rows, row)
	}
	b.WriteString(formatTable(sweepHeader(s), rows))
	b.WriteString("\nTable 4(b): flash cache 4 KiB I/O throughput (IOPS), by cache size (% of DB)\n")
	rows = nil
	for _, p := range s.Policies {
		row := []string{p.String()}
		for _, r := range s.Results[p] {
			row = append(row, fnum(r.FlashIOPS))
		}
		rows = append(rows, row)
	}
	b.WriteString(formatTable(sweepHeader(s), rows))
	return b.String()
}

// FormatFigure4 renders the throughput-vs-cache-size curves.
func FormatFigure4(f Figure4Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: transaction throughput (tpmC) vs cache size, %s\n", f.SSDName)
	headers := []string{"Series"}
	if len(f.Series) > 0 {
		for _, x := range f.Series[0].X {
			headers = append(headers, fmt.Sprintf("%.0f%%", x*100))
		}
	}
	var rows [][]string
	for _, s := range f.Series {
		row := []string{s.Label}
		for _, y := range s.Y {
			row = append(row, fnum(y))
		}
		rows = append(rows, row)
	}
	b.WriteString(formatTable(headers, rows))
	fmt.Fprintf(&b, "HDD-only reference: %s tpmC\n", fnum(f.HDDOnly.TpmC))
	fmt.Fprintf(&b, "SSD-only reference: %s tpmC\n", fnum(f.SSDOnly.TpmC))
	return b.String()
}

// FormatTable5 renders the DRAM-vs-flash cost effectiveness table.
func FormatTable5(rows []Table5Row) string {
	headers := []string{"Config"}
	for _, r := range rows {
		headers = append(headers, fmt.Sprintf("x%d", r.Step))
	}
	dram := []string{"More DRAM"}
	flash := []string{"More Flash"}
	for _, r := range rows {
		dram = append(dram, fnum(r.MoreDRAM.TpmC))
		flash = append(flash, fnum(r.MoreFlash.TpmC))
	}
	return "Table 5: equal-cost increments of DRAM vs flash (tpmC)\n" +
		formatTable(headers, [][]string{dram, flash})
}

// FormatFigure5 renders throughput vs number of disks.
func FormatFigure5(f Figure5Result) string {
	headers := []string{"Series"}
	for _, d := range f.DiskCounts {
		headers = append(headers, fmt.Sprintf("%d disks", d))
	}
	var rows [][]string
	for _, s := range f.Series {
		row := []string{s.Label}
		for _, y := range s.Y {
			row = append(row, fnum(y))
		}
		rows = append(rows, row)
	}
	return "Figure 5: transaction throughput (tpmC) vs number of RAID-0 disks\n" +
		formatTable(headers, rows)
}

// FormatTable6 renders restart times per checkpoint interval.  Because a
// faster system loses more work per wall-clock interval, the table also
// reports restart time normalised by the amount of lost work replayed
// (milliseconds per thousand log records), which isolates the per-page
// recovery cost that the paper's Table 6 demonstrates.  Under wall-clock mode
// the host restart times are added.
func FormatTable6(rows []Table6Row) string {
	wall := false
	for _, r := range rows {
		wall = wall || r.FaCE.WallclockMode || r.HDDOnly.WallclockMode
	}
	headers := []string{"Checkpoint interval", "FaCE+GSC restart", "  metadata restore", "HDD-only restart", "Speed-up", "FaCE ms/krec", "HDD ms/krec", "Normalized"}
	if wall {
		headers = append(headers, "FaCE wall", "HDD wall")
	}
	perKRec := func(r RecoveryRun) float64 {
		if r.RecordsReplayed == 0 {
			return 0
		}
		return float64(r.RestartTime.Milliseconds()) * 1000 / float64(r.RecordsReplayed)
	}
	var out [][]string
	for _, r := range rows {
		speedup := "-"
		if r.FaCE.RestartTime > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(r.HDDOnly.RestartTime)/float64(r.FaCE.RestartTime))
		}
		norm := "-"
		if f, h := perKRec(r.FaCE), perKRec(r.HDDOnly); f > 0 && h > 0 {
			norm = fmt.Sprintf("%.1fx", h/f)
		}
		row := []string{
			r.Interval.String(),
			fdur(r.FaCE.RestartTime),
			fdur(r.FaCE.MetadataRestoreTime),
			fdur(r.HDDOnly.RestartTime),
			speedup,
			fmt.Sprintf("%.0f", perKRec(r.FaCE)),
			fmt.Sprintf("%.0f", perKRec(r.HDDOnly)),
			norm,
		}
		if wall {
			row = append(row, fdur(r.FaCE.RestartWall), fdur(r.HDDOnly.RestartWall))
		}
		out = append(out, row)
	}
	s := "Table 6: time taken to restart the system after a crash\n" + formatTable(headers, out)
	if wall {
		s += "(wall columns are host restart time; on -dir runs the device files are really closed and reopened)\n"
	}
	return s
}

// FormatFigure6 renders the post-restart throughput timeline.
func FormatFigure6(f Figure6Result) string {
	headers := []string{"Time since crash"}
	n := len(f.FaCE.Timeline)
	if len(f.HDDOnly.Timeline) > n {
		n = len(f.HDDOnly.Timeline)
	}
	for i := 0; i < n; i++ {
		headers = append(headers, (time.Duration(i+1) * f.BucketWidth).String())
	}
	row := func(label string, r RecoveryRun) []string {
		cells := []string{label}
		for i := 0; i < n; i++ {
			if i < len(r.Timeline) {
				cells = append(cells, fnum(r.Timeline[i]))
			} else {
				cells = append(cells, "-")
			}
		}
		return cells
	}
	var b strings.Builder
	b.WriteString("Figure 6: transaction throughput (tpmC) after restart, per time bucket\n")
	b.WriteString(formatTable(headers, [][]string{
		row("FaCE+GSC", f.FaCE),
		row("HDD-only", f.HDDOnly),
	}))
	fmt.Fprintf(&b, "Restart time: FaCE+GSC %s, HDD-only %s\n", fdur(f.FaCE.RestartTime), fdur(f.HDDOnly.RestartTime))
	return b.String()
}

// FormatResults renders a flat list of results (used by the ablations).
// Under wall-clock mode (file backend or -wallclock) the wall-clock
// throughput leads the row: on real devices the simulated-time tpmC no
// longer models the run — and the row carries the committed-transaction
// wall-clock latency percentiles the observability layer records.
func FormatResults(title string, rows []Result) string {
	wall := wallclockMode(rows)
	headers := []string{"Config", "tpmC", "total tpm", "flash hit %", "write red. %", "flash util %", "flash IOPS", "DRAM hit %"}
	if wall {
		headers = []string{"Config", "tpmC (wall)", "wall clock", "tx p95", "tx p99", "tpmC (sim)", "flash hit %", "write red. %", "DRAM hit %"}
	}
	var out [][]string
	for _, r := range rows {
		if wall {
			out = append(out, []string{
				r.Label, fnum(r.TpmCWall), fdur(r.WallClock),
				flat(r.TxLatency.P95), flat(r.TxLatency.P99), fnum(r.TpmC),
				pct(r.FlashHitRate), pct(r.WriteReduction), pct(r.DRAMHitRate),
			})
			continue
		}
		out = append(out, []string{
			r.Label, fnum(r.TpmC), fnum(r.TotalTpm),
			pct(r.FlashHitRate), pct(r.WriteReduction), pct(r.FlashUtilization),
			fnum(r.FlashIOPS), pct(r.DRAMHitRate),
		})
	}
	return title + "\n" + formatTable(headers, out)
}
