package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the "exclusive" method), which is what the acceptance driver
// computes a spread from.  Fewer than two values yield that value thrice.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supported caps the wanted percentile p (0..1) at the highest of the
// usual ladder 50/90/95/99/99.9/99.99 that still has minBeyond samples
// beyond it among n; a timing is reported at that percentile, never at one
// the sample cannot carry.
func supported(p float64, n int) float64 {
	best := 0.5
	for _, c := range []float64{0.9, 0.95, 0.99, 0.999, 0.9999} {
		if n-rank(c, n) >= minBeyond {
			best = c
		}
	}
	if p < best {
		return p
	}
	return best
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(p float64, n int) int { return int(p*float64(n) + 0.5) }

// percentile returns the nearest-rank p-quantile of an ascending sample.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := rank(p, len(sorted)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latSummary is the pair every timing is reported as, with the sample count.
type latSummary struct {
	n        int
	p50, p99 time.Duration
}

// summarize sorts d in place and reports its median and its p99, the latter
// at the highest percentile the sample carries when that is lower.
func summarize(d []time.Duration) latSummary {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return latSummary{n: len(d), p50: percentile(d, 0.5), p99: percentile(d, supported(0.99, len(d)))}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sample is one completed operation: when it completed and how long the
// client waited for it.
type sample struct {
	at  time.Time
	lat time.Duration
}

func latencies(samples []sample) []time.Duration {
	d := make([]time.Duration, len(samples))
	for i, s := range samples {
		d[i] = s.lat
	}
	return d
}

// sliceStat is the throughput and latency of one stretch of a window, and
// how much processor time the hypervisor took away during it.
type sliceStat struct {
	opsPerS  float64
	p50, p99 time.Duration
	stolen   time.Duration
}

// Slices per window, and the fewest samples a slice must have for its p99
// to have minBeyond samples beyond it.
const (
	maxSlices      = 5
	minSliceSample = 1000
)

// sliceWindow cuts the window that started at start and lasted d into up to
// maxSlices stretches of equal length and reports each one's throughput,
// latency and stolen time.  A virtual machine's processors are taken away
// for milliseconds at a time, in bursts that last seconds to minutes;
// measured as one piece, a window that caught a burst reports a p99 many
// times that of its neighbour.  Cut into slices, the run can tell which
// stretches were disturbed and report from the others (see steady).
func sliceWindow(samples []sample, start time.Time, d time.Duration, steal *stealLog) []sliceStat {
	k := min(maxSlices, max(1, len(samples)/minSliceSample))
	width := d / time.Duration(k)
	buckets := make([][]time.Duration, k)
	for _, s := range samples {
		i := min(k-1, max(0, int(s.at.Sub(start)/width)))
		buckets[i] = append(buckets[i], s.lat)
	}
	out := make([]sliceStat, 0, k)
	for i, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sum := summarize(b)
		from := start.Add(time.Duration(i) * width)
		out = append(out, sliceStat{opsPerS: float64(len(b)) / width.Seconds(), p50: sum.p50, p99: sum.p99,
			stolen: steal.between(from, from.Add(width))})
	}
	return out
}

// steady condenses the slices of every repetition of a run into one value
// of a timing or a rate, read from each slice by of.  Only the quarter of
// the slices from which the least processor time was stolen is kept, with
// every slice that ties with them (on a quiet host that is all of them:
// nothing was stolen from any).  What other interference there is also only
// ever makes a slice slower, so of those kept the value reported is the
// quartile on the good side: a quarter of them were at least this fast.  It
// moves when the program's speed moves and stays put while the host is busy
// with somebody else.
func steady(slices []sliceStat, higherIsBetter bool, of func(sliceStat) float64) float64 {
	if len(slices) == 0 {
		return 0
	}
	stolen := make([]float64, len(slices))
	for i, sl := range slices {
		stolen[i] = float64(sl.stolen)
	}
	limit := quarterMark(stolen, false)
	var vals []float64
	for _, sl := range slices {
		if float64(sl.stolen) <= limit {
			vals = append(vals, of(sl))
		}
	}
	return quarterMark(vals, higherIsBetter)
}

// quarterMark returns the value a quarter of the way in from the low end of
// v (from the high end with fromTop): always one of the values, the lowest
// (highest) itself for fewer than five.
func quarterMark(v []float64, fromTop bool) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := (len(s) - 1) / 4
	if fromTop {
		i = len(s) - 1 - i
	}
	return s[i]
}

// stealLog samples, every stealEvery, the processor time the hypervisor has
// taken from this machine so far (the steal column of /proc/stat).  Where
// the kernel does not report it, every reading is zero and nothing is ever
// set aside.
type stealLog struct {
	at     []time.Time
	stolen []time.Duration
	stop   chan struct{}
	done   chan struct{}
}

const stealEvery = 50 * time.Millisecond

// readStolen returns the steal time of all processors together.
func readStolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

func startStealLog() *stealLog {
	l := &stealLog{stop: make(chan struct{}), done: make(chan struct{})}
	l.note()
	go func() {
		defer close(l.done)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				l.note()
				return
			case <-t.C:
				l.note()
			}
		}
	}()
	return l
}

func (l *stealLog) note() {
	l.at, l.stolen = append(l.at, time.Now()), append(l.stolen, readStolen())
}

// finish stops the sampling; between may be called after it.
func (l *stealLog) finish() {
	close(l.stop)
	<-l.done
}

// between is the time stolen from the first reading at or after from to the
// first at or after to.
func (l *stealLog) between(from, to time.Time) time.Duration {
	if l == nil || len(l.at) == 0 {
		return 0
	}
	at := func(t time.Time) time.Duration {
		i := sort.Search(len(l.at), func(i int) bool { return !l.at[i].Before(t) })
		return l.stolen[min(i, len(l.at)-1)]
	}
	return at(to) - at(from)
}
