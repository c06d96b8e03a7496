package rounds

import (
	"fmt"
	"slices"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
)

// shuffled returns the order shuffleInbox gives an inbox of n messages
// from senders 0 … n-1 under key.
func shuffled(key int64, n int) []ids.NodeID {
	d := make([]delivery, n)
	for i := range d {
		d[i].from = ids.NodeID(i)
	}
	shuffleInbox(key, d)
	order := make([]ids.NodeID, n)
	for i, m := range d {
		order[i] = m.from
	}
	return order
}

// engineKeys are keys of the shape the engine derives,
// Seed ^ round<<20 ^ recipient, for seed 1 over 100 rounds of 240
// recipients.
func engineKeys() []int64 {
	var keys []int64
	for round := int64(1); round <= 100; round++ {
		for j := int64(0); j < 240; j++ {
			keys = append(keys, 1^round<<20^j)
		}
	}
	return keys
}

// TestShuffleIsAPermutationOfItsKey holds the delivery shuffle to the
// three properties the engine relies on (DESIGN.md §6): every result is a
// permutation of the inbox, it depends on the key alone, and each order
// of a short inbox is drawn equally often.
func TestShuffleIsAPermutationOfItsKey(t *testing.T) {
	lengths := []int{640, 2000}
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, key := range []int64{0, 1, -7, 1<<20 ^ 5, 1 << 62} {
			got := shuffled(key, n)
			sorted := slices.Clone(got)
			slices.Sort(sorted)
			for i, from := range sorted {
				if from != ids.NodeID(i) {
					t.Fatalf("n=%d key=%d: %v is not a permutation", n, key, got)
				}
			}
		}
	}

	// The key alone: the same key gives the same order whatever was
	// shuffled before it; the next key gives another.
	first := shuffled(42, 300)
	shuffled(43, 1000)
	if again := shuffled(42, 300); !slices.Equal(first, again) {
		t.Fatal("key 42 shuffled the same inbox two ways")
	}
	if slices.Equal(first, shuffled(43, 300)) {
		t.Fatal("keys 42 and 43 gave one order of 300 messages")
	}

	// Uniform over orders: chi-square over the n! orders of n = 3 and 4
	// across 24 000 engine keys, against its 0.999 quantile (5 and 23
	// degrees of freedom). A draw from [0, i) instead of [0, i] reaches
	// only the cyclic orders, and a constant draw one order.
	keys := engineKeys()
	for _, tc := range []struct {
		n, orders int
		bound     float64
	}{{3, 6, 20.52}, {4, 24, 49.73}} {
		counts := make(map[string]int)
		for _, key := range keys {
			counts[fmt.Sprint(shuffled(key, tc.n))]++
		}
		if len(counts) != tc.orders {
			t.Errorf("n=%d: %d of %d orders drawn", tc.n, len(counts), tc.orders)
			continue
		}
		want := float64(len(keys)) / float64(tc.orders)
		chi2 := 0.0
		for _, c := range counts {
			chi2 += (float64(c) - want) * (float64(c) - want) / want
		}
		t.Logf("n=%d: chi-square %.2f over %d orders (bound %.2f)", tc.n, chi2, tc.orders, tc.bound)
		if chi2 > tc.bound {
			t.Errorf("n=%d: chi-square %.2f over %d orders exceeds %.2f", tc.n, chi2, tc.orders, tc.bound)
		}
	}
}
