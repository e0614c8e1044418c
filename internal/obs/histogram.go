package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout: values below 2^subBits nanoseconds get one bucket each;
// above that, each power of two is split into 2^subBits sub-buckets, so
// the relative quantization error is bounded by 2^-subBits (~6.25%).
const (
	subBits    = 4
	subBuckets = 1 << subBits // 16
	// maxExp is the largest power of two a positive int64 duration can
	// reach (bit 62; ~292 years of nanoseconds).
	maxExp = 62
	// numBuckets covers [0, 2^subBits) linearly plus subBuckets per
	// exponent in [subBits, maxExp].
	numBuckets = subBuckets + (maxExp-subBits+1)*subBuckets
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // >= subBits
	sub := int((v >> (uint(exp) - subBits)) & (subBuckets - 1))
	return subBuckets + (exp-subBits)*subBuckets + sub
}

// bucketUpper returns the inclusive upper bound (ns) of a bucket, the
// value quantiles report so they never understate a latency.
func bucketUpper(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := uint(subBits + (i-subBuckets)/subBuckets)
	sub := int64((i - subBuckets) % subBuckets)
	lower := int64(1)<<exp + sub<<(exp-subBits)
	return lower + int64(1)<<(exp-subBits) - 1
}

// Histogram is a lock-free log-bucketed latency histogram: atomic
// per-bucket counters with an atomic count/sum/max, safe for any number
// of concurrent writers and snapshotters.  A nil Histogram ignores
// Observe and yields an empty Snapshot, so a server configured without a
// registry records through nil histograms without guards.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
	// exemplars holds, per bucket, the trace ID of the last observation
	// recorded through ObserveExemplar, so a latency bucket links to a
	// concrete trace in the journal.  Allocated lazily on the first
	// exemplar so plain histograms stay at their PR 8 size.
	exemplars atomic.Pointer[[numBuckets]atomic.Uint64]
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration.  Negative durations clamp to zero.
// No-op on a nil receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.observe(int64(d))
}

// ObserveExemplar records one duration and remembers trace as the
// observed bucket's exemplar, so the bucket a slow request lands in
// points back at that request's trace in the journal.  A zero trace ID
// records no exemplar.  No-op on a nil receiver.
func (h *Histogram) ObserveExemplar(d time.Duration, trace uint64) {
	if h == nil {
		return
	}
	i := h.observe(int64(d))
	if trace == 0 {
		return
	}
	ex := h.exemplars.Load()
	if ex == nil {
		ex = new([numBuckets]atomic.Uint64)
		if !h.exemplars.CompareAndSwap(nil, ex) {
			ex = h.exemplars.Load()
		}
	}
	ex[i].Store(trace)
}

func (h *Histogram) observe(v int64) int {
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return i
		}
	}
}

// Snapshot returns a point-in-time copy of the histogram.  Concurrent
// Observes may land between the bucket reads — each bucket is itself
// coherent, and Count is recomputed from the buckets so the snapshot's
// own invariants hold.  A nil receiver yields an empty snapshot.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Max = h.max.Load()
	s.Sum = h.sum.Load()
	s.Buckets = make([]int64, numBuckets)
	var count int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		count += n
	}
	s.Count = count
	if ex := h.exemplars.Load(); ex != nil {
		s.Exemplars = make([]uint64, numBuckets)
		for i := range ex {
			s.Exemplars[i] = ex[i].Load()
		}
	}
	return s
}

// HistSnapshot is a mergeable, subtractable copy of a Histogram.  The
// zero value is an empty snapshot.
type HistSnapshot struct {
	Count int64
	// Sum and Max are nanoseconds.
	Sum     int64
	Max     int64
	Buckets []int64
	// Exemplars is the per-bucket last trace ID (0 = none), present only
	// when the histogram recorded any through ObserveExemplar.
	Exemplars []uint64
}

// Sub returns the histogram of the window between prior and s (counter
// subtraction, the engine's standard measurement idiom).  Max cannot be
// windowed, so the later snapshot's max is kept.
func (s HistSnapshot) Sub(prior HistSnapshot) HistSnapshot {
	out := HistSnapshot{
		Count: s.Count - prior.Count,
		Sum:   s.Sum - prior.Sum,
		Max:   s.Max,
	}
	if len(s.Buckets) == 0 {
		return out
	}
	out.Buckets = make([]int64, len(s.Buckets))
	copy(out.Buckets, s.Buckets)
	for i := range prior.Buckets {
		if i < len(out.Buckets) {
			out.Buckets[i] -= prior.Buckets[i]
		}
	}
	// Exemplars are point samples, not counters: the later snapshot's
	// are the window's.
	out.Exemplars = s.Exemplars
	return out
}

// Merge returns the union of two snapshots (for folding per-kind
// histograms into an aggregate).
func (s HistSnapshot) Merge(other HistSnapshot) HistSnapshot {
	out := HistSnapshot{
		Count: s.Count + other.Count,
		Sum:   s.Sum + other.Sum,
		Max:   s.Max,
	}
	if other.Max > out.Max {
		out.Max = other.Max
	}
	n := len(s.Buckets)
	if len(other.Buckets) > n {
		n = len(other.Buckets)
	}
	if n == 0 {
		return out
	}
	out.Buckets = make([]int64, n)
	copy(out.Buckets, s.Buckets)
	for i := range other.Buckets {
		out.Buckets[i] += other.Buckets[i]
	}
	// Keep s's exemplars, filling gaps from other: "a" trace per bucket
	// matters more than which fold contributed it.
	if len(s.Exemplars) > 0 || len(other.Exemplars) > 0 {
		out.Exemplars = make([]uint64, n)
		copy(out.Exemplars, s.Exemplars)
		for i := range other.Exemplars {
			if i < n && out.Exemplars[i] == 0 {
				out.Exemplars[i] = other.Exemplars[i]
			}
		}
	}
	return out
}

// Quantile returns the q-th quantile (0 < q <= 1) as the upper bound of
// the bucket containing it; 0 on an empty snapshot.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count <= 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen >= rank {
			return time.Duration(bucketUpper(i))
		}
	}
	return time.Duration(s.Max)
}

// Summary condenses the snapshot into the quantiles reports carry.
func (s HistSnapshot) Summary() Summary {
	sum := Summary{
		Count: s.Count,
		Max:   time.Duration(s.Max),
	}
	if s.Count > 0 {
		sum.Mean = time.Duration(s.Sum / s.Count)
		sum.P50 = s.Quantile(0.50)
		sum.P95 = s.Quantile(0.95)
		sum.P99 = s.Quantile(0.99)
		sum.P999 = s.Quantile(0.999)
	}
	return sum
}

// ExemplarFor returns the trace ID remembered by the bucket a duration
// of d would land in (0 when the snapshot has no exemplars or the
// bucket recorded none).  This is the /debug/traces lookup: "the p99 is
// X — which request was that?".
func (s HistSnapshot) ExemplarFor(d time.Duration) uint64 {
	if len(s.Exemplars) == 0 {
		return 0
	}
	v := int64(d)
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	if i >= len(s.Exemplars) {
		return 0
	}
	return s.Exemplars[i]
}

// Exemplar pairs one non-empty latency bucket with the last trace that
// landed in it.
type Exemplar struct {
	// UpperNS is the bucket's inclusive upper bound in nanoseconds.
	UpperNS int64 `json:"upper_ns"`
	// Count is the bucket's observation count at snapshot time.
	Count int64 `json:"count"`
	// TraceID is the last trace recorded into the bucket, rendered the
	// way trace IDs print everywhere else.
	TraceID string `json:"trace_id"`
}

// ExemplarList returns the buckets that both saw traffic and remember a
// trace, slowest-last — the serialized form /debug/traces serves.
func (s HistSnapshot) ExemplarList() []Exemplar {
	var out []Exemplar
	for i, ex := range s.Exemplars {
		if ex == 0 || i >= len(s.Buckets) || s.Buckets[i] == 0 {
			continue
		}
		out = append(out, Exemplar{
			UpperNS: bucketUpper(i),
			Count:   s.Buckets[i],
			TraceID: fmt.Sprintf("%016x", ex),
		})
	}
	return out
}

// Summary is the condensed form of a histogram window: count, mean and
// the latency quantiles every report in this repository uses.  All
// durations are wall-clock nanoseconds in JSON.
type Summary struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	P999  time.Duration `json:"p999_ns"`
	Max   time.Duration `json:"max_ns"`
}
