package rounds

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
)

// shuffleSeeds are edge-case and random seeds for the replica tests.
func shuffleSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 89482311, // 0 is remapped to 89482311
		int32max, -int32max, 2 * int32max, 7 * int32max, int32max + 1, int32max - 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
		1 << 20, 1<<20 ^ 1, 5 ^ 3<<20 ^ 17, // the engine's seed ^ round<<20 ^ recipient shape
	}
	pick := rand.New(rand.NewSource(15))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	return seeds
}

// checkShuffle holds shuffleInbox over an inbox of n distinct deliveries to
// what math/rand's Shuffle does to the same inbox, and reports the draws
// math/rand made.
func checkShuffle(t *testing.T, seed int64, n int) int {
	t.Helper()
	got := make([]delivery, n)
	for i := range got {
		got[i].from = ids.NodeID(i)
	}
	want := slices.Clone(got)
	src := &countingSource{Source: rand.NewSource(seed)}
	rand.New(src).Shuffle(n, func(a, b int) { want[a], want[b] = want[b], want[a] })
	shuffleInbox(seed, got)
	for i := range got {
		if got[i].from != want[i].from {
			t.Fatalf("seed %d, %d messages: position %d holds sender %d, math/rand puts %d there",
				seed, n, i, got[i].from, want[i].from)
		}
	}
	return src.draws
}

// countingSource counts the values math/rand draws from its source.
type countingSource struct {
	rand.Source
	draws int
}

func (s *countingSource) Int63() int64 { s.draws++; return s.Source.Int63() }

// TestShuffleSourceMatchesMathRand holds the replica to the real thing: for
// every seed, the permutation shuffleInbox makes must equal that of
// rand.New(rand.NewSource(seed)).Shuffle, at lengths on both sides of the
// stateless limit (274 messages) and of the register's length (607), and
// past two wraps of the register.
func TestShuffleSourceMatchesMathRand(t *testing.T) {
	for _, seed := range shuffleSeeds() {
		for _, n := range []int{2, 3, 24, statelessLen, statelessLen + 1, rngLen, rngLen + 1, 1400} {
			checkShuffle(t, seed, n)
		}
	}
}

// TestShuffleSourceLengths runs every length from 0 to 2000, short → long
// → short, so that neither regime can lean on what the other left behind.
func TestShuffleSourceLengths(t *testing.T) {
	const longest = 2000
	for _, seed := range []int64{0, 71, -5 ^ 9<<20} {
		for n := 0; n <= longest; n++ {
			checkShuffle(t, seed, n)
			checkShuffle(t, seed, longest-n)
		}
	}
}

// TestShuffleSourceRejectedDraw covers the hand-over from stateless draws
// to the register. Rand.int31n rejects a draw with probability below
// n/2³², so a 274-message inbox needs its 274th draw — the first that
// reads a register word — only for rare seeds; these were found by search
// and are checked to reject here.
func TestShuffleSourceRejectedDraw(t *testing.T) {
	for _, seed := range []int64{256262, 354279, 487500} {
		for _, n := range []int{statelessLen, statelessLen - 1} {
			draws := checkShuffle(t, seed, n)
			if n == statelessLen && draws <= statelessDraws {
				t.Errorf("seed %d: %d draws for %d messages, want a rejected one", seed, draws, n)
			}
		}
	}
}

// TestShuffleSourceHandOver holds shuffleRegister, taking over after every
// possible number of stateless draws, to math/rand's Shuffle run on a
// source that has made those draws already.
func TestShuffleSourceHandOver(t *testing.T) {
	for _, seed := range []int64{0, 71, math.MinInt64, 5 ^ 3<<20 ^ 17} {
		for drawn := 0; drawn <= statelessDraws; drawn++ {
			for _, n := range []int{2, 3, 50, rngLen + 93} {
				got := make([]delivery, n)
				for i := range got {
					got[i].from = ids.NodeID(i)
				}
				want := slices.Clone(got)
				src := rand.NewSource(seed)
				for k := 0; k < drawn; k++ {
					src.Int63()
				}
				rand.New(src).Shuffle(n, func(a, b int) { want[a], want[b] = want[b], want[a] })
				shuffleRegister(normSeed(seed), got, drawn)
				for i := range got {
					if got[i].from != want[i].from {
						t.Fatalf("seed %d, %d messages after %d draws: position %d holds sender %d, math/rand puts %d there",
							seed, n, drawn, i, got[i].from, want[i].from)
					}
				}
			}
		}
	}
}
