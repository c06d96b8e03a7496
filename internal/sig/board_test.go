package sig

import (
	"bytes"
	"sync"
	"testing"

	"github.com/nectar-repro/nectar/internal/ids"
)

// TestBoardVouchesOnlyItsRound: a post vouches for exactly its bytes under
// its signer, only once published and only for the round it was published
// in; a retracted board, a board of another signer and a second post under
// a taken key vouch for nothing, and a released cache hands its boards on
// retracted.
func TestBoardVouchesOnlyItsRound(t *testing.T) {
	scheme := NewHMAC(4, 1)
	head, hops := []byte("proof"), []byte("hops")
	sg := scheme.SignerFor(2).Sign(append(head, hops...))
	c := NewVerifyCache()
	b := c.Board(2)
	if c.Board(2) != b {
		t.Fatal("a second registration made a second board")
	}
	vouched := func(signer ids.NodeID, round int, sg, head, hops []byte) bool {
		return c.Vouched(signer, round, sg, head, hops)
	}
	b.Post(sg, head, hops)
	if vouched(2, 0, sg, head, hops) || vouched(2, 1, sg, head, hops) {
		t.Error("an unpublished post vouches")
	}
	b.Publish(3)
	if !vouched(2, 3, sg, head, hops) {
		t.Error("a published post does not vouch for its round")
	}
	for name, ok := range map[string]bool{
		"another round":  vouched(2, 4, sg, head, hops),
		"another signer": vouched(1, 3, sg, head, hops),
		"no board":       vouched(3, 3, sg, head, hops),
		"out of range":   vouched(9, 3, sg, head, hops),
		"other head":     vouched(2, 3, sg, []byte("proof!"), hops),
		"other hops":     vouched(2, 3, sg, head, []byte("hopz")),
		"short hops":     vouched(2, 3, sg, head, hops[:3]),
		"other sig":      vouched(2, 3, bytes.Repeat([]byte{1}, len(sg)), head, hops),
	} {
		if ok {
			t.Errorf("%s: vouched", name)
		}
	}
	b.Post(sg, head, []byte("later"))
	if !vouched(2, 3, sg, head, hops) || vouched(2, 3, sg, head, []byte("later")) {
		t.Error("a second post under a taken key replaced the first")
	}
	b.Retract()
	if vouched(2, 3, sg, head, hops) {
		t.Error("a retracted post vouches")
	}
	var none *Board
	none.Retract()
	none.Publish(1)

	b.Post(sg, head, hops)
	b.Publish(5)
	c.Release()
	again := NewVerifyCache()
	defer again.Release()
	if again.Vouched(2, 5, sg, head, hops) || c.Vouched(2, 5, sg, head, hops) {
		t.Error("a post outlived the cache's release")
	}
}

// TestBoardOutOfLockstep: readers may ask a board at any time — over TCP a
// neighbour can still be checking round r while the poster emits round
// r+1. Under -race this must be clean, and a reader must only ever be
// vouched the bytes posted for the round it asks about.
func TestBoardOutOfLockstep(t *testing.T) {
	c := NewVerifyCache()
	defer c.Release()
	b := c.Board(1)
	const rounds = 200
	post := func(r int) (sg, head, hops []byte) {
		return []byte{byte(r), 1, 2, 3, 4, 5, 6, 7}, []byte{byte(r)}, []byte{byte(r), byte(r >> 8)}
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		arena := make([]byte, 0, 16)
		for r := 1; r <= rounds; r++ {
			b.Retract()
			arena = arena[:0] // the poster's memory is its own again
			sg, head, hops := post(r)
			arena = append(append(arena, head...), hops...)
			b.Post(sg, arena[:len(head)], arena[len(head):])
			b.Publish(r)
		}
	}()
	for k := 0; k < 2; k++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 4*rounds; i++ {
				r := 1 + i%rounds
				sg, head, hops := post(r)
				c.Vouched(1, r, sg, head, hops) // either answer: the poster may have moved on
				if c.Vouched(1, r, sg, head, []byte{byte(r), byte(r>>8) + 1}) {
					t.Errorf("round %d vouched for other bytes", r)
				}
				if wrong, _, _ := post(r + 1); c.Vouched(1, r, wrong, head, hops) {
					t.Errorf("round %d vouched under another round's signature", r)
				}
			}
		}()
	}
	wg.Wait()
}
