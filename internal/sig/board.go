package sig

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"github.com/nectar-repro/nectar/internal/ids"
)

// Board is where one signer posts the records it made in the current round
// (DESIGN.md §9): a record head‖hops whose last hop is the signer's own,
// over a prefix the signer had checked valid. A receiver asks the board of
// the neighbour that delivered the record; if that neighbour posted exactly
// these bytes this round, no signature in them needs a Verify call.
//
// A post may leave its last signature to be made (Defer): the first reader
// to ask for the record signs it into the poster's memory, as the poster
// would have, before anything reads those bytes. Whoever reads the record
// without asking the board — a copy taken in between, a reader in another
// engine — would find the slot zero, so only a poster each of whose readers
// asks within the round, or keeps and sends nothing it did not ask for, may
// defer.
//
// Posts alias the poster's memory, which must stay unmodified — but for
// the signatures the board makes — until the poster's next Retract. They
// are keyed by the record's head, whose first eight bytes name the edge; a
// second post under a taken key is dropped (it is merely not vouched for).
// Trust is the poster's business: only a signer whose own signatures
// verify under the run's Verifier may post, and only records whose prefix
// it checked. Retract, Post, Defer and Publish are called by the board's
// one owner; Vouched by anyone, at any time: a board vouches only for the
// round it was last published in, and for nothing between a Retract and
// the next Publish.
type Board struct {
	mu    sync.RWMutex
	round int // the round the posts were published for; 0 while unpublished
	// index maps a post's key to its place in posts.
	index map[uint64]int
	posts []boardPost
	// The deferred posts' signer and verifier, and their signing payloads
	// back to back: the poster's scratch is its own again once Defer
	// returns. signMu serializes their signing; readers of a signed post
	// never take it.
	signer   AppendSigner
	verifier Verifier
	payloads []byte
	signMu   sync.Mutex
}

// boardPost is one posted record, head and hops as the poster holds them.
// A deferred one needs its last signature over payloads[off:end] while
// unsigned, an atomic flag, is 1.
type boardPost struct {
	head, hops []byte
	off, end   int
	unsigned   uint32
}

// keyOf is the key of a record with this head: its first eight bytes, the
// edge a NECTAR proof names. The record's bytes are compared in full on
// every read, so a key only ever selects what to compare.
func keyOf(head []byte) uint64 {
	var k [8]byte
	copy(k[:], head)
	return binary.LittleEndian.Uint64(k[:])
}

// Board returns signer's board in c, making it on the first call; every
// later call, by whatever node, returns the same board. Call it before the
// run the cache serves starts: Vouched reads the registry unlocked.
func (c *VerifyCache) Board(signer ids.NodeID) *Board {
	c.boardMu.Lock()
	defer c.boardMu.Unlock()
	if int(signer) >= len(c.boards) {
		c.boards = append(c.boards, make([]*Board, int(signer)+1-len(c.boards))...)
	}
	b := c.boards[signer]
	if b == nil {
		b = &Board{index: make(map[uint64]int)}
		c.boards[signer] = b
	}
	return b
}

// Retract withdraws every post: until the next Publish the board vouches
// for nothing, and the memory the posts aliased is the poster's again.
// A nil board is a no-op.
func (b *Board) Retract() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.round = 0
	clear(b.index)
	clear(b.posts) // they alias the poster's memory
	b.posts = b.posts[:0]
	b.signer, b.verifier, b.payloads = nil, nil, b.payloads[:0]
	b.mu.Unlock()
}

// Post adds head‖hops, whose last signature the board's signer made, to the
// posts the next Publish makes readable. Readers never look at the posts
// of an unpublished board, so posting takes no lock.
func (b *Board) Post(head, hops []byte) {
	b.add(boardPost{head: head, hops: hops})
}

// add files p under its head's key unless the key is taken, and reports
// whether it did.
func (b *Board) add(p boardPost) bool {
	k := keyOf(p.head)
	if _, taken := b.index[k]; taken {
		return false
	}
	b.index[k] = len(b.posts)
	b.posts = append(b.posts, p)
	return true
}

// Defer is Post for a record whose last hop names the board's signer but
// whose signature slot — the hop's last v.SigSize() bytes — is still to be
// filled: the first Vouched for the record fills it as
// ChainScratch.SignLastHop(s, v, payload, hops) would. v's scheme must bind
// the message. It reports false, posting nothing, when the key is taken;
// the caller then signs the record itself.
func (b *Board) Defer(s AppendSigner, v Verifier, payload, head, hops []byte) bool {
	off := len(b.payloads)
	if !b.add(boardPost{head: head, hops: hops, off: off, end: off + len(payload), unsigned: 1}) {
		return false
	}
	b.payloads = append(b.payloads, payload...)
	b.signer, b.verifier = s, v
	return true
}

// Publish makes the posts since the last Retract vouch for round (≥ 1).
// A nil board is a no-op.
func (b *Board) Publish(round int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.round = round
	b.mu.Unlock()
}

// Vouched reports whether signer's board holds head‖hops, whose last hop
// signer made, published for round (≥ 1). A signer without a board vouches
// for nothing. It is a delivery check's one question to the cache: a
// record it vouches for counts a hit, any other a miss, which its caller
// then verifies. A deferred post under the record's key is signed first,
// exactly once, with cs as the signing scratch, so a record it vouches for
// holds its signature when Vouched returns.
func (c *VerifyCache) Vouched(signer ids.NodeID, round int, head, hops []byte, cs *ChainScratch) bool {
	ok := false
	if round >= 1 && int(signer) < len(c.boards) && c.boards[signer] != nil {
		ok = c.boards[signer].vouched(round, head, hops, cs)
	}
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return ok
}

// vouched is Vouched on one board.
func (b *Board) vouched(round int, head, hops []byte, cs *ChainScratch) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.round != round { // only a published board's posts are safe to read
		return false
	}
	i, found := b.index[keyOf(head)]
	if !found {
		return false
	}
	p := &b.posts[i]
	if atomic.LoadUint32(&p.unsigned) == 1 {
		b.signMu.Lock() // the first reader signs; the others wait for it
		if atomic.LoadUint32(&p.unsigned) == 1 {
			cs.SignLastHop(b.signer, b.verifier, b.payloads[p.off:p.end], p.hops)
			atomic.StoreUint32(&p.unsigned, 0)
		}
		b.signMu.Unlock()
	}
	return bytes.Equal(p.head, head) && bytes.Equal(p.hops, hops)
}
