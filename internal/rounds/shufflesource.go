package rounds

import "math/rand"

// shuffleSource is a rand.Source64 that reproduces, bit for bit, the
// stream of math/rand's own source (an additive lagged-Fibonacci
// generator, x[n] = x[n-607] + x[n-273], over a 607-word state) while
// seeding in O(1).
//
// The engine reseeds once per recipient per round and then draws only
// len(inbox)-1 values, but math/rand's Seed fills all 607 words up front
// by stepping the Lehmer generator x' = 48271·x mod 2³¹−1 through 1841
// dependent steps — on short floods that was a fifth of the whole run. The
// words are independent of one another given the seed, though: word i is
// built from steps 21+3i, 22+3i and 23+3i of that sequence, and step k is
// 48271^k·seed mod 2³¹−1. So Seed here only records the seed, and a word is
// computed the first time the generator reads it, from a table of the
// powers 48271^(21+3i).
//
// The delivery order is pinned (DESIGN.md §6), which is why this is a
// replica and not a cheaper generator: TestShuffleSourceMatchesMathRand
// holds it to math/rand's output, TestDeliveryOrderIsPinned to the
// resulting order.
type shuffleSource struct {
	tap, feed int
	seed      uint64 // normalised into [1, 2³¹−2]
	// vec[i] holds word i of the current seed's state iff stamp[i] ==
	// epoch; any other stamp means the slot still carries an earlier
	// seed's value and must be derived before use.
	epoch uint32
	stamp [rngLen]uint32
	vec   [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lehmerA  = 48271
)

// lehmerPow[i] = 48271^(21+3i) mod 2³¹−1: the multiplier that takes the
// seed to the first of the three Lehmer outputs math/rand folds into word i.
var lehmerPow = func() (pow [rngLen]uint32) {
	x := uint64(1)
	for k := 1; k <= 20; k++ {
		x = mulMod31(x, lehmerA)
	}
	for i := range pow {
		x = mulMod31(x, lehmerA)
		pow[i] = uint32(x)
		x = mulMod31(mulMod31(x, lehmerA), lehmerA)
	}
	return pow
}()

// mulMod31 returns a·b mod 2³¹−1 for a, b in [1, 2³¹−2]. 2³¹ ≡ 1 modulo a
// Mersenne prime, so the high bits fold onto the low ones; the result is
// what math/rand's Schrage-division seedrand computes, without a division.
func mulMod31(a, b uint64) uint64 {
	p := a * b             // < 2⁶²
	p = p&int32max + p>>31 // < 2³²
	p = p&int32max + p>>31 // ≤ 2³¹
	if p >= int32max {
		p -= int32max
	}
	return p
}

// newShuffleRand returns a rand.Rand over a fresh shuffleSource. Its
// stream after Seed(s) is that of rand.New(rand.NewSource(s)).
func newShuffleRand() *rand.Rand {
	src := new(shuffleSource)
	src.Seed(0)
	return rand.New(src)
}

// Seed resets the generator to the state math/rand's source has after
// Seed(seed), deferring the derivation of each state word to its first use.
func (s *shuffleSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)

	s.epoch++
	if s.epoch == 0 {
		// The counter wrapped: a slot stamped 2³² seeds ago would read as
		// current. Forget every stamp once and restart from epoch 1.
		s.stamp = [rngLen]uint32{}
		s.epoch = 1
	}
}

// word returns state word i, deriving it from the seed if this is the
// first read since Seed.
func (s *shuffleSource) word(i int) int64 {
	if s.stamp[i] != s.epoch {
		x := mulMod31(uint64(lehmerPow[i]), s.seed)
		u := int64(x) << 40
		x = mulMod31(x, lehmerA)
		u ^= int64(x) << 20
		x = mulMod31(x, lehmerA)
		u ^= int64(x)
		s.vec[i] = u ^ rngCooked[i]
		s.stamp[i] = s.epoch
	}
	return s.vec[i]
}

// Uint64 returns the next value of the stream.
func (s *shuffleSource) Uint64() uint64 {
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
	return uint64(x)
}

// Int63 returns the next value of the stream with the sign bit cleared.
func (s *shuffleSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
