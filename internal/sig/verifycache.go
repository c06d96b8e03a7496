package sig

import (
	"bytes"
	"sync"
	"sync/atomic"

	"github.com/nectar-repro/nectar/internal/freelist"
)

// VerifyCache is the verification state the nodes of one run share
// (DESIGN.md §9), in two parts:
//
//   - the signers' boards (Board): each correct node posts what it emits
//     in a round, and a receiver whose check finds the delivered bytes on
//     the sender's board needs no Verify call;
//   - the proof ledger: one verdict per edge proof, recorded by the first
//     endpoint that checks it and taken by the second when the proof's
//     bytes are equal (Proven, Prove).
//
// A check answered by either counts a hit, one that calls Verify a miss
// (Stats). Every check a run makes is fixed by its deliveries, so Stats
// reads the same at any worker count.
//
// VerifyCache is safe for concurrent use; share one per simulated trial.
type VerifyCache struct {
	hits, misses atomic.Int64
	ledgerMu     sync.Mutex
	ledger
	// boards[s] is signer s's Board, made by the first Board(s) call.
	// Registration takes boardMu; Vouched reads the slice without it, as
	// every node registers before its run starts.
	boardMu sync.Mutex
	boards  []*Board
}

// ledger is the proof ledger: under each key, the first proof recorded —
// its bytes, copied back to back into recs, and its verdict.
type ledger struct {
	proofs map[uint64]ledgerEntry
	recs   []byte
}

// ledgerEntry is one recorded proof, recs[off:end].
type ledgerEntry struct {
	off, end int
	valid    bool
}

// verifyStores is one cache's worth of storage, the unit of recycling: the
// ledger and the signers' boards.
type verifyStores struct {
	ledger
	boards []*Board
}

// verifyStoreFree recycles the storage of released caches (DESIGN.md §9):
// a sweep builds one cache per trial and a dynamic run one per epoch — up
// to a window of them alive at once — each registering a board per node
// and recording a proof per edge. Only the stores travel, never a
// *VerifyCache — a holder of a released cache must not be able to reach
// the boards of whichever run is handed its storage next, since a verdict
// must never outlive its scheme's key set. Hot slots over a sync.Pool, like
// the engine's staging: a bare pool loses a lone item whenever the
// releasing and the next acquiring goroutine sit on different Ps (see
// internal/freelist).
var verifyStoreFree = freelist.New(func() *verifyStores { return new(verifyStores) })

// NewVerifyCache returns an empty cache.
func NewVerifyCache() *VerifyCache {
	stores := verifyStoreFree.Acquire()
	return &VerifyCache{ledger: stores.ledger, boards: stores.boards}
}

// Release empties the cache and hands its storage — the ledger, cleared,
// and the boards, retracted — to the caches built after it, which then
// start at the capacity this one reached. Call it once the run the cache
// served is over and Stats has been read: Release resets the counters too,
// and a node still holding one of its boards must post no more. A released
// cache is an empty cache and stays usable (it allocates afresh); never
// releasing merely forgoes the recycling.
func (c *VerifyCache) Release() {
	if c == nil {
		return
	}
	stores := new(verifyStores)
	c.ledgerMu.Lock()
	clear(c.proofs)
	stores.ledger, c.ledger = ledger{proofs: c.proofs, recs: c.recs[:0]}, ledger{}
	c.ledgerMu.Unlock()
	c.boardMu.Lock()
	for _, b := range c.boards {
		b.Retract()
	}
	stores.boards, c.boards = c.boards, nil
	c.boardMu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	verifyStoreFree.Release(stores)
}

// Proven returns the verdict the ledger holds for proof under key, and
// whether it holds one for exactly these bytes; a proof it holds counts a
// hit. One that differs from the recorded bytes — a key collision, or a
// forger's second proof of an edge — is not found: its caller verifies it
// and ends the check with Prove.
func (c *VerifyCache) Proven(key uint64, proof []byte) (valid, found bool) {
	c.ledgerMu.Lock()
	valid, found = c.lookup(key, proof)
	c.ledgerMu.Unlock()
	if found {
		c.hits.Add(1)
	}
	return valid, found
}

// Prove records valid — what Verify said of proof — under key, unless the
// key is taken. It counts the check a miss, or a hit when the key already
// holds these very bytes: two callers that race to one proof both verify
// it, and the counts are those of the order in which the second finds the
// first's verdict, whatever the schedule.
func (c *VerifyCache) Prove(key uint64, proof []byte, valid bool) {
	c.ledgerMu.Lock()
	_, held := c.lookup(key, proof)
	if _, taken := c.proofs[key]; !taken {
		if c.proofs == nil {
			c.proofs = make(map[uint64]ledgerEntry)
		}
		off := len(c.recs)
		c.recs = append(c.recs, proof...) // proof aliases its caller's buffer
		c.proofs[key] = ledgerEntry{off: off, end: len(c.recs), valid: valid}
	}
	c.ledgerMu.Unlock()
	if held {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// lookup is Proven without the lock and the count.
func (l *ledger) lookup(key uint64, proof []byte) (valid, found bool) {
	e, taken := l.proofs[key]
	if !taken || !bytes.Equal(l.recs[e.off:e.end], proof) {
		return false, false
	}
	return e.valid, true
}

// Stats returns the cumulative hit and miss counts: checks answered by a
// board or the ledger, and checks that called Verify.
func (c *VerifyCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}
