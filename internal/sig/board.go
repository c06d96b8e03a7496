package sig

import (
	"bytes"
	"encoding/binary"
	"sync"

	"github.com/nectar-repro/nectar/internal/ids"
)

// Board is where one signer posts the records it made in the current round
// (DESIGN.md §9): a record head‖hops whose outermost signature is the
// signer's own, over a prefix the signer had checked valid. A receiver
// asks the board of the neighbour that delivered the record; if that
// neighbour posted exactly these bytes this round, no signature in them
// needs a Verify call.
//
// Posts alias the poster's memory, which must stay unmodified until the
// poster's next Retract; they are keyed by their outermost signature
// (keyOf), and a second post under a taken key is dropped (it is merely
// not vouched for).
// Trust is the poster's business: only a signer whose own signatures
// verify under the run's Verifier may post, and only records whose prefix
// it checked. Retract, Post and Publish are called by the board's one
// owner; Vouched by anyone, at any time: a board vouches only for the
// round it was last published in, and for nothing between a Retract and
// the next Publish.
type Board struct {
	mu     sync.RWMutex
	signer ids.NodeID
	round  int // the round the posts were published for; 0 while unpublished
	posts  map[verifyKey]boardPost
}

// verifyKey indexes a board's posts by a record's outermost signature: the
// signature's head — eight pseudorandom bytes for any real scheme — mixed
// with its signer, so honest records almost never share a key. The
// record's bytes are compared in full on every read, which makes a board
// immune to collisions an adversary might engineer.
type verifyKey uint64

func keyOf(signer ids.NodeID, sg []byte) verifyKey {
	var head [8]byte
	copy(head[:], sg)
	return verifyKey(binary.LittleEndian.Uint64(head[:]) ^ uint64(signer)*0x9E3779B97F4A7C15)
}

// boardPost is one posted record, head and hops as the poster holds them.
type boardPost struct{ head, hops []byte }

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
		b = &Board{signer: signer, posts: make(map[verifyKey]boardPost)}
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
	clear(b.posts)
	b.mu.Unlock()
}

// Post adds head‖hops, whose outermost signature sg the board's signer
// made, to the posts the next Publish makes readable. Readers never look
// at the posts of an unpublished board, so posting takes no lock.
func (b *Board) Post(sg, head, hops []byte) {
	k := keyOf(b.signer, sg)
	if _, taken := b.posts[k]; !taken {
		b.posts[k] = boardPost{head: head, hops: hops}
	}
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

// Vouched reports whether signer's board holds head‖hops, whose outermost
// signature sg signer made, published for round (≥ 1). A signer without a
// board vouches for nothing. It is a delivery check's one question to the
// cache: a record it vouches for counts a hit, any other a miss, which its
// caller then verifies.
func (c *VerifyCache) Vouched(signer ids.NodeID, round int, sg, head, hops []byte) bool {
	ok := false
	if round >= 1 && int(signer) < len(c.boards) && c.boards[signer] != nil {
		b := c.boards[signer]
		b.mu.RLock()
		if b.round == round { // only a published board's posts are safe to read
			p, found := b.posts[keyOf(signer, sg)]
			ok = found && bytes.Equal(p.head, head) && bytes.Equal(p.hops, hops)
		}
		b.mu.RUnlock()
	}
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return ok
}
