package sig

import (
	"bytes"
	"encoding/binary"
	"sync"

	"github.com/nectar-repro/nectar/internal/freelist"
	"github.com/nectar-repro/nectar/internal/ids"
)

// verifyKey indexes the memo by a record's outermost signature: the
// signature's head — eight pseudorandom bytes for any real scheme — mixed
// with its signer, so honest records almost never share a key. Nothing
// else is part of the key: the record's bytes are compared in full on
// lookup, which keeps map slots small, lets the map take its one-word key
// path, and makes the memo immune to collisions an adversary might
// engineer.
type verifyKey uint64

func keyOf(signer ids.NodeID, sg []byte) verifyKey {
	var head [8]byte
	copy(head[:], sg)
	return verifyKey(binary.LittleEndian.Uint64(head[:]) ^ uint64(signer)*0x9E3779B97F4A7C15)
}

// verifyEntry is one record: its exact bytes, rec = head‖hops, and its
// verdict. The first entry under a key lives inline in the map value; next
// links further ones — a signature an adversary replayed over other bytes,
// or forged to share a head — and is allocated only when such a second
// entry actually shows up, so honest traffic never pays a heap object per
// entry.
type verifyEntry struct {
	rec     []byte
	verdict uint8
	next    *verifyEntry
}

// matches reports whether e records exactly head‖hops.
func (e *verifyEntry) matches(head, hops []byte) bool {
	return len(e.rec) == len(head)+len(hops) &&
		bytes.Equal(e.rec[:len(head)], head) && bytes.Equal(e.rec[len(head):], hops)
}

// verifyShardCount is the number of independently locked shards, a power
// of two. Sixteen keeps two to four delivery workers off each other's
// locks while the per-shard maps stay large enough to grow like one map.
const (
	verifyShardBits  = 4
	verifyShardCount = 1 << verifyShardBits
)

// Stored records are copied into per-shard chunks that start at
// minVerifyChunk bytes and double up to maxVerifyChunk: one allocation
// per chunk instead of one per miss, without charging short trials for
// arena they never fill.
const (
	minVerifyChunk = 1 << 10
	maxVerifyChunk = 1 << 14
)

// verifyStore is what a shard keeps its entries in: the map and the
// chunks its records are copied into. It is the part of the memo that
// outlives a cache on the package free list (see Release).
type verifyStore struct {
	m      map[verifyKey]verifyEntry
	chunks [][]byte // chunks[:cur] are full, chunks[cur] is being filled
}

// verifyShard is one lock's worth of the memo. The counters live here,
// under the lock, so hit-or-miss is decided atomically with the lookup or
// insert it describes. Sized to one 64-byte cache line so neighbouring
// shards' locks do not false-share.
type verifyShard struct {
	mu sync.Mutex
	verifyStore
	cur    int // index of the chunk being filled; see insert
	hits   int64
	misses int64
}

// VerifyCache memoizes checked signature chains (DESIGN.md §9). A record is
// the exact bytes head‖hops of a chain — whatever the hops are chained to,
// then raw hops (scratch.go) — with a verdict: 0 when every signature in it
// verified, else the caller's label for the check that failed. It is keyed
// by its outermost signature, and a hit requires byte equality. Verification
// is a pure function of its inputs for every deterministic scheme, and no
// hop's input reaches past it, so a chain whose prefix is recorded valid
// needs only its later hops verified.
//
// VerifyCache is safe for concurrent use; share one per simulated trial.
// Only counted lookups and stores reach Stats: every distinct record counts
// one miss and every other counted lookup of it a hit, whatever the
// interleaving, so Stats reads the same at any worker count.
type VerifyCache struct {
	shards [verifyShardCount]verifyShard
	// boards[s] is signer s's Board, made by the first Board(s) call.
	// Registration takes boardMu; Vouched reads the slice without it, as
	// every node registers before its run starts.
	boardMu sync.Mutex
	boards  []*Board
}

// verifyStores is one cache's worth of storage, the unit of recycling: the
// shards' stores and the signers' boards.
type verifyStores struct {
	shards [verifyShardCount]verifyStore
	boards []*Board
}

// verifyStoreFree recycles the storage of released caches (DESIGN.md §9):
// a sweep builds one memo per trial and a dynamic run one per epoch — up
// to a window of them alive at once — each growing the same sixteen maps
// and chunk lists from nothing. Only the stores travel, never a
// *VerifyCache — a holder of a released cache must not be able to reach
// the memo of whichever run is handed its storage next, since a memo must
// never outlive its scheme's key set. Hot slots over a sync.Pool, like the
// engine's staging: a bare pool loses a lone item whenever the releasing
// and the next acquiring goroutine sit on different Ps (see
// internal/freelist).
var verifyStoreFree = freelist.New(func() *verifyStores { return new(verifyStores) })

// NewVerifyCache returns an empty cache.
func NewVerifyCache() *VerifyCache {
	c := &VerifyCache{}
	stores := verifyStoreFree.Acquire()
	for i := range c.shards {
		c.shards[i].verifyStore = stores.shards[i]
	}
	c.boards = stores.boards
	return c
}

// Release empties the cache and hands its storage — the shard maps,
// cleared, the record chunks, truncated, and the boards, retracted — to the
// caches built after it, which then start at the capacity this one reached.
// Call it once the run the cache served is over and Stats has been read:
// Release resets the counters too, and a node still holding one of its
// boards must post no more. A released cache is an empty cache and stays
// usable (it allocates afresh); never releasing merely forgoes the
// recycling.
func (c *VerifyCache) Release() {
	if c == nil {
		return
	}
	stores := new(verifyStores)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		clear(sh.m)
		for j := range sh.chunks {
			sh.chunks[j] = sh.chunks[j][:0]
		}
		stores.shards[i] = sh.verifyStore
		sh.verifyStore, sh.cur, sh.hits, sh.misses = verifyStore{}, 0, 0, 0
		sh.mu.Unlock()
	}
	c.boardMu.Lock()
	for _, b := range c.boards {
		b.Retract()
	}
	stores.boards, c.boards = c.boards, nil
	c.boardMu.Unlock()
	verifyStoreFree.Release(stores)
}

// shard picks k's shard (forged all-zero tags still spread by signer).
func (c *VerifyCache) shard(k verifyKey) *verifyShard {
	return &c.shards[uint64(k)*0x9E3779B97F4A7C15>>(64-verifyShardBits)]
}

// lookup returns the verdict recorded for head‖hops under k. Callers hold
// sh.mu.
func (sh *verifyShard) lookup(k verifyKey, head, hops []byte) (verdict uint8, found bool) {
	e, present := sh.m[k]
	if !present {
		return 0, false
	}
	for p := &e; p != nil; p = p.next {
		if p.matches(head, hops) {
			return p.verdict, true
		}
	}
	return 0, false
}

// insert records the verdict for head‖hops under k, which must not be
// present. The bytes are copied — they alias a delivered buffer — into the
// shard's chunked arena; filled chunks stay alive through the entries that
// point into them, and through chunks, which is how Release finds them
// again. A recycled store arrives with its chunks empty and cur at 0, so
// the walk below fills them in order before it allocates. Callers hold
// sh.mu.
func (sh *verifyShard) insert(k verifyKey, head, hops []byte, verdict uint8) {
	need := len(head) + len(hops)
	for sh.cur < len(sh.chunks) && need > cap(sh.chunks[sh.cur])-len(sh.chunks[sh.cur]) {
		sh.cur++
	}
	if sh.cur == len(sh.chunks) {
		size := minVerifyChunk
		if sh.cur > 0 {
			size = min(2*cap(sh.chunks[sh.cur-1]), maxVerifyChunk)
		}
		sh.chunks = append(sh.chunks, make([]byte, 0, max(size, need)))
	}
	chunk := append(append(sh.chunks[sh.cur], head...), hops...)
	rec := chunk[len(sh.chunks[sh.cur]):len(chunk):len(chunk)]
	sh.chunks[sh.cur] = chunk
	if sh.m == nil {
		sh.m = make(map[verifyKey]verifyEntry)
	}
	first, present := sh.m[k]
	if !present {
		sh.m[k] = verifyEntry{rec: rec, verdict: verdict}
		return
	}
	first.next = &verifyEntry{rec: rec, verdict: verdict, next: first.next}
	sh.m[k] = first
}

// Lookup returns the verdict of the record head‖hops, whose outermost
// signature sg was made by signer, and whether it is stored. A counted
// lookup that finds it counts a hit; one that does not counts nothing, and
// its caller, having checked the chain, ends the lookup with a counted
// Store.
func (c *VerifyCache) Lookup(signer ids.NodeID, sg, head, hops []byte, counted bool) (verdict uint8, found bool) {
	k := keyOf(signer, sg)
	sh := c.shard(k)
	sh.mu.Lock()
	verdict, found = sh.lookup(k, head, hops)
	if found && counted {
		sh.hits++
	}
	sh.mu.Unlock()
	return verdict, found
}

// Store records verdict for head‖hops unless the record is there already.
// A counted store counts a miss when it inserts and a hit when it does not:
// checks run outside the shard lock, so two callers that miss one record
// concurrently both check it, and the second to come back finds the first's
// record — the counts are those of some sequential order of the same
// lookups, whatever the schedule.
func (c *VerifyCache) Store(signer ids.NodeID, sg, head, hops []byte, verdict uint8, counted bool) {
	k := keyOf(signer, sg)
	sh := c.shard(k)
	sh.mu.Lock()
	if _, found := sh.lookup(k, head, hops); !found {
		sh.insert(k, head, hops, verdict)
		if counted {
			sh.misses++
		}
	} else if counted {
		sh.hits++
	}
	sh.mu.Unlock()
}

// Stats returns the cumulative hit and miss counts.
func (c *VerifyCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		sh.mu.Unlock()
	}
	return hits, misses
}
