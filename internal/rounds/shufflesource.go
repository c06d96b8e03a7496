package rounds

// The delivery shuffle reproduces, bit for bit, what
// rand.New(rand.NewSource(seed)).Shuffle(len(d), swap) does to d: a
// Fisher–Yates pass whose index draws come from math/rand's source, an
// additive lagged-Fibonacci generator x[n] = x[n-607] + x[n-273] over a
// 607-word register, through Rand.int31n.
//
// math/rand's Seed fills all 607 words up front by stepping the Lehmer
// generator x' = 48271·x mod 2³¹−1 through 1841 dependent steps, but the
// engine reseeds once per recipient per round and then draws only
// len(inbox)-1 values. The words are independent of one another given the
// seed, though: word i is built from steps 21+3i, 22+3i and 23+3i of that
// sequence, and step k is 48271^k·seed mod 2³¹−1, so any one word costs
// three modular multiplications from a table of the powers 48271^(21+3i).
//
// Draw k (counting from 1) of a fresh register adds word 334−k (the feed)
// to word 607−k (the tap) and stores the sum in the feed slot. Up to draw
// 273 neither word has been written by an earlier draw, so those draws are
// a pure function of the seed and need no register at all: an inbox of up
// to statelessLen messages (273 draws, unless int31n rejects one) derives
// its words on the fly and touches no state. Draw 274 is the first to read
// a word a draw wrote; a longer inbox fills the register once and steps it
// as math/rand does.
//
// The delivery order is pinned (DESIGN.md §6), which is why this is a
// replica and not a cheaper generator: TestShuffleSourceMatchesMathRand
// holds it to math/rand's Shuffle, TestDeliveryOrderIsPinned to the
// resulting order.

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	lehmerA  = 48271

	// statelessDraws is the number of draws a fresh register answers from
	// words no draw has written; statelessLen the longest inbox whose
	// shuffle needs no more (one draw per element but the first).
	statelessDraws = rngTap
	statelessLen   = statelessDraws + 1
)

// lehmerPow[i] = 48271^(21+3i) mod 2³¹−1: the multiplier that takes the
// seed to the first of the three Lehmer outputs math/rand folds into word i.
var lehmerPow = func() (pow [rngLen]uint32) {
	x := uint64(1)
	for k := 1; k <= 20; k++ {
		x = mulA(x)
	}
	for i := range pow {
		x = mulA(x)
		pow[i] = uint32(x)
		x = mulA(mulA(x))
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

// mulA returns x·48271 mod 2³¹−1 for x in [1, 2³¹−2]: mulMod31 by the
// Lehmer multiplier, whose product is small enough for one fold.
func mulA(x uint64) uint64 {
	p := x * lehmerA       // < 2⁴⁷
	p = p&int32max + p>>31 // < 2³¹ + 2¹⁶
	if p >= int32max {
		p -= int32max
	}
	return p
}

// normSeed maps a seed to the Lehmer state math/rand's Seed starts from,
// in [1, 2³¹−2].
func normSeed(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// pack folds the Lehmer output x and the two after it into one register
// word, before the rngCooked constant is XORed in: register word i for the
// normalised seed s is pack(mulMod31(lehmerPow[i], s)) ^ rngCooked[i].
func pack(x uint64) int64 {
	y := mulA(x)
	return int64(x)<<40 ^ int64(y)<<20 ^ int64(mulA(y))
}

// shuffleInbox permutes d exactly as
// rand.New(rand.NewSource(seed)).Shuffle(len(d), swap) would. len(d) must
// stay below 2³¹, as every inbox does.
func shuffleInbox(seed int64, d []delivery) {
	s := normSeed(seed)
	if len(d) > statelessLen {
		shuffleRegister(s, d, 0)
		return
	}
	k := 0 // draws made
	for i := len(d) - 1; i > 0; i-- {
		// int31n(n): a draw v is accepted unless the low half of v·n falls
		// below 2³² mod n; the first test skips the division when it
		// cannot.
		n := uint32(i + 1)
		for {
			if k == statelessDraws { // only after int31n rejected a draw
				shuffleRegister(s, d[:i+1], k)
				return
			}
			k++
			// Register words feed and tap, derived from the seed.
			f, t := rngLen-rngTap-k, rngLen-k
			v := uint32(uint64(pack(mulMod31(uint64(lehmerPow[f]), s))^rngCooked[f]+
				(pack(mulMod31(uint64(lehmerPow[t]), s))^rngCooked[t])) >> 31)
			prod := uint64(v) * uint64(n)
			if low := uint32(prod); low >= n || low >= -n%n {
				j := prod >> 32
				d[i], d[j] = d[j], d[i]
				break
			}
		}
	}
}

// shuffleRegister finishes the shuffle of d, whose elements above
// len(d)-1 are already placed, after `drawn` ≤ statelessDraws stateless
// draws: it fills the register, replays those draws' writes, and steps
// the register for the rest.
func shuffleRegister(s uint64, d []delivery, drawn int) {
	var vec [rngLen]int64
	for i := range vec {
		vec[i] = pack(mulMod31(uint64(lehmerPow[i]), s)) ^ rngCooked[i]
	}
	feed, tap := rngLen-rngTap, rngLen
	for k := 0; k < drawn; k++ {
		feed--
		tap--
		vec[feed] += vec[tap]
	}
	tap %= rngLen

	for i := len(d) - 1; i > 0; i-- {
		n := uint32(i + 1)
		for {
			tap--
			if tap < 0 {
				tap += rngLen
			}
			feed--
			if feed < 0 {
				feed += rngLen
			}
			x := vec[feed] + vec[tap]
			vec[feed] = x
			prod := uint64(uint32(uint64(x)>>31)) * uint64(n)
			if low := uint32(prod); low >= n || low >= -n%n {
				j := prod >> 32
				d[i], d[j] = d[j], d[i]
				break
			}
		}
	}
}
