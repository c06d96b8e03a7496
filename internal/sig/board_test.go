package sig

import (
	"bytes"
	"sync"
	"sync/atomic"
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
	head := []byte("proof")
	hops := append([]byte{0, 0, 0, 2}, scheme.SignerFor(2).Sign(head)...)
	c := NewVerifyCache()
	b := c.Board(2)
	if c.Board(2) != b {
		t.Fatal("a second registration made a second board")
	}
	vouched := func(signer ids.NodeID, round int, head, hops []byte) bool {
		return c.Vouched(signer, round, head, hops, nil)
	}
	b.Post(head, hops)
	if vouched(2, 0, head, hops) || vouched(2, 1, head, hops) {
		t.Error("an unpublished post vouches")
	}
	b.Publish(3)
	if !vouched(2, 3, head, hops) {
		t.Error("a published post does not vouch for its round")
	}
	otherSig := bytes.Clone(hops)
	otherSig[len(otherSig)-1] ^= 1
	for name, ok := range map[string]bool{
		"another round":  vouched(2, 4, head, hops),
		"another signer": vouched(1, 3, head, hops),
		"no board":       vouched(3, 3, head, hops),
		"out of range":   vouched(9, 3, head, hops),
		"other head":     vouched(2, 3, []byte("proof!"), hops),
		"other hops":     vouched(2, 3, head, []byte("hopz")),
		"short hops":     vouched(2, 3, head, hops[:3]),
		"other sig":      vouched(2, 3, head, otherSig),
	} {
		if ok {
			t.Errorf("%s: vouched", name)
		}
	}
	b.Post(head, []byte("later"))
	if !vouched(2, 3, head, hops) || vouched(2, 3, head, []byte("later")) {
		t.Error("a second post under a taken key replaced the first")
	}
	b.Retract()
	if vouched(2, 3, head, hops) {
		t.Error("a retracted post vouches")
	}
	var none *Board
	none.Retract()
	none.Publish(1)

	b.Post(head, hops)
	b.Publish(5)
	c.Release()
	again := NewVerifyCache()
	defer again.Release()
	if again.Vouched(2, 5, head, hops, nil) || c.Vouched(2, 5, head, hops, nil) {
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
	post := func(r int) (head, hops []byte) {
		return []byte{byte(r), byte(r >> 8)}, []byte{byte(r), 1, 2, 3, 4, 5, 6, 7}
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		arena := make([]byte, 0, 16)
		for r := 1; r <= rounds; r++ {
			b.Retract()
			arena = arena[:0] // the poster's memory is its own again
			head, hops := post(r)
			arena = append(append(arena, head...), hops...)
			b.Post(arena[:len(head)], arena[len(head):])
			b.Publish(r)
		}
	}()
	for k := 0; k < 2; k++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 4*rounds; i++ {
				r := 1 + i%rounds
				head, hops := post(r)
				c.Vouched(1, r, head, hops, nil) // either answer: the poster may have moved on
				if c.Vouched(1, r, head, append(hops[:7:7], 8), nil) {
					t.Errorf("round %d vouched for other bytes", r)
				}
				if _, later := post(r + 1); c.Vouched(1, r, head, later, nil) {
					t.Errorf("round %d vouched for another round's bytes", r)
				}
			}
		}()
	}
	wg.Wait()
}

// countedSigner counts the signatures an AppendSigner makes.
type countedSigner struct {
	AppendSigner
	calls *atomic.Int64
}

func (s countedSigner) AppendSign(dst, msg []byte) []byte {
	s.calls.Add(1)
	return s.AppendSigner.AppendSign(dst, msg)
}

// widthSigner signs like the AppendSigner it embeds, cut to width bytes or
// extended to them with 0xDD.
type widthSigner struct {
	AppendSigner
	width int
}

func (s widthSigner) AppendSign(dst, msg []byte) []byte {
	out := bytes.Repeat([]byte{0xDD}, s.width)
	copy(out, s.AppendSigner.AppendSign(nil, msg))
	return append(dst, out...)
}

// deferredRecord lays out head‖hops in one buffer, as a relay sits in its
// poster's arena: a two-hop chain whose second hop, signer 2's, has its
// signature slot zeroed, and paint behind the record that no signature may
// touch.
func deferredRecord(scheme Scheme, payload []byte) (arena, head, hops []byte) {
	v := scheme.Verifier()
	first := AppendHop(scheme.SignerFor(1), payload, nil)
	hop := HopWireSize(v.SigSize())
	head = []byte("edge-key+proof")
	arena = append(bytes.Clone(head), make([]byte, 2*hop)...)
	copy(arena[len(head):], []byte{0, 0, 0, 1})
	copy(arena[len(head)+4:], first[0].Sig)
	copy(arena[len(head)+hop:], []byte{0, 0, 0, 2})
	arena = append(arena, bytes.Repeat([]byte{0xEE}, 64)...)
	end := len(head) + 2*hop
	return arena, arena[:len(head)], arena[len(head):end:end]
}

// TestBoardSignsDeferredPostOnFirstRead: a deferred post is signed by the
// first Vouched that finds it, once, into the poster's bytes — exactly the
// signature SignLastHop makes, cut or zero-padded to the slot, never a
// byte past it — and is then vouched like any post; a second Defer under a
// taken key is refused, and a read of other bytes still signs the post
// but is not vouched.
func TestBoardSignsDeferredPostOnFirstRead(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	sigSize := v.SigSize()
	payload := []byte("statement")
	for _, width := range []int{0, 1, sigSize - 1, sigSize, sigSize + 1, 3 * sigSize} {
		var calls atomic.Int64
		signer := countedSigner{widthSigner{scheme.SignerFor(2).(AppendSigner), width}, &calls}
		_, wantHead, wantHops := deferredRecord(scheme, payload)
		var cs ChainScratch
		cs.SignLastHop(signer, v, payload, wantHops)
		calls.Store(0)

		c := NewVerifyCache()
		b := c.Board(2)
		arena, head, hops := deferredRecord(scheme, payload)
		if !b.Defer(signer, v, payload, head, hops) {
			t.Fatal("Defer refused an empty board")
		}
		if b.Defer(signer, v, payload, head, hops) {
			t.Error("a second Defer under a taken key was accepted")
		}
		payload[0] ^= 1 // the board keeps its own copy
		b.Publish(1)
		if !c.Vouched(2, 1, wantHead, wantHops, &cs) {
			t.Errorf("width %d: the signed record is not vouched for", width)
		}
		if !bytes.Equal(hops, wantHops) {
			t.Errorf("width %d: the board signed % x, want % x", width, hops, wantHops)
		}
		if rest := arena[len(head)+len(hops):]; !bytes.Equal(rest, bytes.Repeat([]byte{0xEE}, len(rest))) {
			t.Errorf("width %d: the board wrote past the hop slot", width)
		}
		for range 3 {
			c.Vouched(2, 1, wantHead, wantHops, &cs)
		}
		if calls.Load() != 1 {
			t.Errorf("width %d: %d signatures for four reads, want 1", width, calls.Load())
		}
		payload[0] ^= 1
		c.Release()
	}

	c := NewVerifyCache()
	defer c.Release()
	var calls atomic.Int64
	signer := countedSigner{scheme.SignerFor(2).(AppendSigner), &calls}
	_, head, hops := deferredRecord(scheme, payload)
	c.Board(2).Defer(signer, v, payload, head, hops)
	c.Board(2).Publish(1)
	other := bytes.Clone(hops)
	other[len(other)-1] ^= 1
	var cs ChainScratch
	if c.Vouched(2, 1, head, other, &cs) || calls.Load() != 1 {
		t.Errorf("a read of other bytes: vouched, or %d signatures, want 1", calls.Load())
	}
	if !c.Vouched(2, 1, head, hops, &cs) || calls.Load() != 1 {
		t.Errorf("the post after a read of other bytes: not vouched, or %d signatures, want 1", calls.Load())
	}
}

// TestBoardDeferredPostConcurrentReaders: readers that find one deferred
// post at once get one signature between them, every one of them is
// vouched, and each reads the signed bytes. Run with -race.
func TestBoardDeferredPostConcurrentReaders(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	payload := []byte("statement")
	_, _, wantHops := deferredRecord(scheme, payload)
	var cs ChainScratch
	cs.SignLastHop(scheme.SignerFor(2).(AppendSigner), v, payload, wantHops)
	for range 50 {
		c := NewVerifyCache()
		var calls atomic.Int64
		_, head, hops := deferredRecord(scheme, payload)
		c.Board(2).Defer(countedSigner{scheme.SignerFor(2).(AppendSigner), &calls}, v, payload, head, hops)
		c.Board(2).Publish(1)
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var cs ChainScratch
				if !c.Vouched(2, 1, head, hops, &cs) || !bytes.Equal(hops, wantHops) {
					t.Error("a concurrent reader was not vouched the signed record")
				}
			}()
		}
		wg.Wait()
		if calls.Load() != 1 {
			t.Fatalf("%d signatures for four concurrent readers, want 1", calls.Load())
		}
		c.Release()
	}
}
