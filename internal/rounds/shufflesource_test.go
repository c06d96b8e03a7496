package rounds

import (
	"math"
	"math/rand"
	"testing"
)

// TestShuffleSourceMatchesMathRand holds the replica to the real thing:
// for every seed, the Uint64 stream of one long-lived shuffleSource —
// reseeded, never rebuilt, so a lazily derived word left over from an
// earlier seed would show — must equal that of rand.NewSource(seed). 1400
// outputs run past both the point where the generator starts reading words
// it wrote itself (334 draws) and two wraps of the 607-word register.
func TestShuffleSourceMatchesMathRand(t *testing.T) {
	const outputs = 1400
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

	src := new(shuffleSource)
	check := func(seed int64, n int) {
		t.Helper()
		want := rand.NewSource(seed).(rand.Source64)
		src.Seed(seed)
		for k := 0; k < n; k++ {
			if got, w := src.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed %d (epoch %d): output %d = %#x, math/rand gives %#x", seed, src.epoch, k, got, w)
			}
		}
	}
	for _, seed := range seeds {
		check(seed, outputs)
	}

	// Short draws between reseeds, as the engine makes them: each seed
	// derives a few words and leaves the rest stamped by older seeds.
	for i, seed := range seeds {
		check(seed, 1+i%7)
	}

	// Across the epoch counter's wrap, slots stamped with small epochs
	// (every one, after the runs above) must not read as current.
	src.epoch = math.MaxUint32 - 2
	for _, seed := range seeds[:8] {
		check(seed, outputs)
	}
	if src.epoch >= 8 {
		t.Fatalf("epoch %d after a forced wrap, want a small restart value", src.epoch)
	}

	// Int63 is the same stream with the sign bit cleared.
	want := rand.NewSource(99)
	src.Seed(99)
	for k := 0; k < outputs; k++ {
		if got, w := src.Int63(), want.Int63(); got != w {
			t.Fatalf("Int63 output %d = %d, math/rand gives %d", k, got, w)
		}
	}
}
