package tpcc

import "math/rand"

// lazySource is a math/rand source whose stream for a seed is exactly that
// of rand.NewSource(seed), but whose Seed costs nothing: math/rand fills
// all 607 state words at Seed time (1 881 steps of a multiplicative
// generator, about 10 µs), while a transaction draws a few dozen values and
// so reads a fraction of them.  Here Seed only stores the seed, and a state
// word is computed when it is first read.
//
// math/rand's state word i, after Seed(s), is
//
//	(x(21+3i) << 40) ^ (x(22+3i) << 20) ^ x(23+3i) ^ rngCooked[i]
//
// with x(j) = s·48271^j mod (2³¹−1); the powers are a table here.
// rngCooked, math/rand's fixed table, is recovered once from the first
// 607 outputs of rand.NewSource(1) rather than copied: the generator is
// the additive lagged Fibonacci recurrence out(j) = out(j−607) + out(j−273),
// which runs backwards as well as forwards.
type lazySource struct {
	tap, feed int
	seed      uint64
	// gen numbers the Seed calls; word i is current when fresh[i] == gen.
	gen   uint32
	fresh [rngLen]uint32
	vec   [rngLen]uint64
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
)

var (
	// seedPow[i][j] is 48271^(21+3i+j) mod int32max.
	seedPow   [rngLen][3]uint64
	rngCooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for range 20 {
		p = p * 48271 % int32max
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			p = p * 48271 % int32max
			seedPow[i][j] = p
		}
	}

	// x[607+j] is output j of seed 1, and x[j] the state word output j
	// added to it, which was vec[(333−j) mod 607] after Seed(1).
	var x [2 * rngLen]uint64
	src := rand.NewSource(1).(rand.Source64)
	for j := rngLen; j < len(x); j++ {
		x[j] = src.Uint64()
	}
	for j := rngLen - 1; j >= 0; j-- {
		x[j] = x[j+rngLen] - x[j+rngLen-rngTap]
	}
	for j := range rngLen {
		i := (2*rngLen - rngTap - 1 - j) % rngLen
		rngCooked[i] = x[j] ^ seedWord(1, i)
	}
}

// seedWord is state word i after Seed(seed) without rngCooked.
func seedWord(seed uint64, i int) uint64 {
	p := &seedPow[i]
	return (seed*p[0]%int32max)<<40 ^ (seed*p[1]%int32max)<<20 ^ seed*p[2]%int32max
}

func newLazySource(seed int64) *lazySource {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// Seed starts the stream of rand.NewSource(seed) over.
func (s *lazySource) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.gen++
	if s.gen == 0 {
		// After 2³² seeds a stale word could pass for a current one.
		clear(s.fresh[:])
		s.gen = 1
	}
}

func (s *lazySource) word(i int) uint64 {
	if s.fresh[i] != s.gen {
		s.vec[i] = seedWord(s.seed, i) ^ rngCooked[i]
		s.fresh[i] = s.gen
	}
	return s.vec[i]
}

// Uint64 is math/rand's rngSource.Uint64 over words computed on first use.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return x
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
