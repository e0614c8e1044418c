package tpcc

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestLazySourceMatchesMathRand: for every seed, lazySource yields the
// stream of rand.NewSource(seed) — drawn directly and through rand.Rand's
// Intn, Float64 and Perm — with one source re-seeded from seed to seed, as
// a terminal's is, and across a wrap of its generation counter.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, math.MaxInt32, 1 << 62, -1 << 62, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(25))
	for range 2000 {
		seeds = append(seeds, rng.Int63()-rng.Int63())
	}
	lazy := newLazySource(0)
	check := func(seed int64) {
		t.Helper()
		want := rand.NewSource(seed)
		lazy.Seed(seed)
		for i := range 1500 {
			if got, w := lazy.Int63(), want.Int63(); got != w {
				t.Fatalf("seed %d, draw %d: %d, math/rand %d", seed, i, got, w)
			}
		}
		want.Seed(seed)
		lazy.Seed(seed)
		r, w := rand.New(lazy), rand.New(want)
		for i := range 200 {
			if a, b := r.Intn(1000+i), w.Intn(1000+i); a != b {
				t.Fatalf("seed %d, Intn %d: %d, math/rand %d", seed, i, a, b)
			}
			if a, b := r.Float64(), w.Float64(); a != b {
				t.Fatalf("seed %d, Float64 %d: %v, math/rand %v", seed, i, a, b)
			}
		}
		if a, b := r.Perm(50), w.Perm(50); !slices.Equal(a, b) {
			t.Fatalf("seed %d: Perm %v, math/rand %v", seed, a, b)
		}
	}
	for _, seed := range seeds {
		check(seed)
	}

	// The generation counter wraps.  Words stamped with the generations that
	// come round after the wrap must not pass for current: plant such words,
	// holding garbage, and seed across the wrap.
	lazy.gen = math.MaxUint32
	for i := range lazy.fresh {
		lazy.fresh[i], lazy.vec[i] = uint32(1+i%3), ^uint64(i)
	}
	for _, seed := range seeds[:6] {
		want := rand.NewSource(seed)
		lazy.Seed(seed)
		for i := range 10 {
			if got, w := lazy.Int63(), want.Int63(); got != w {
				t.Fatalf("generation %d, seed %d, draw %d: %d, math/rand %d", lazy.gen, seed, i, got, w)
			}
		}
	}
	check(seeds[0])
}

// BenchmarkSeedMathRand and BenchmarkSeedLazy price what runSlot pays per
// attempt: a re-seed and a transaction's worth of draws.
func BenchmarkSeedMathRand(b *testing.B) { benchSeed(b, rand.New(rand.NewSource(0))) }

func BenchmarkSeedLazy(b *testing.B) { benchSeed(b, rand.New(newLazySource(0))) }

func benchSeed(b *testing.B, r *rand.Rand) {
	b.ReportAllocs()
	var seed int64
	for b.Loop() {
		seed++
		r.Seed(seed)
		for range 100 {
			r.Int63()
		}
	}
}
