package sig

import (
	"bytes"
	"encoding/binary"
	"sync"

	"github.com/nectar-repro/nectar/internal/freelist"
	"github.com/nectar-repro/nectar/internal/ids"
)

// maxCachedSigSize is the longest signature the memo stores. Every
// provided scheme fits (Ed25519 and HMAC tags are 64 bytes); longer
// signatures simply bypass the cache.
const maxCachedSigSize = 64

// verifyKey indexes the memo by signer and the head of the signature —
// eight pseudorandom bytes for any real scheme, so honest entries almost
// never share a key. Neither the rest of the signature nor the signed
// message is part of the key: both are compared byte-for-byte against the
// stored entries on lookup, which keeps map slots small and makes the
// memo immune to collisions an adversary might engineer.
type verifyKey struct {
	signer ids.NodeID
	sigLen uint8
	head   [8]byte
}

func keyOf(signer ids.NodeID, sg []byte) verifyKey {
	k := verifyKey{signer: signer, sigLen: uint8(len(sg))}
	copy(k.head[:], sg)
	return k
}

// verifyEntry records one memoized verification: the exact signature and
// message checked (rec = sig‖msg, split at the key's sigLen) and the
// verifier's verdict. The first entry under a key lives inline in the map
// value; next links further ones — a signature an adversary replayed over
// other bytes, or forged to share a head — and is allocated only when
// such a second entry actually shows up, so honest traffic never pays a
// heap object per entry.
type verifyEntry struct {
	rec  []byte
	ok   bool
	next *verifyEntry
}

// matches reports whether e records exactly (sg, msg).
func (e *verifyEntry) matches(sg, msg []byte) bool {
	return len(e.rec) == len(sg)+len(msg) &&
		bytes.Equal(e.rec[:len(sg)], sg) && bytes.Equal(e.rec[len(sg):], msg)
}

// verifyShardCount is the number of independently locked shards, a power
// of two. Sixteen keeps two to four delivery workers off each other's
// locks while the per-shard maps stay large enough to grow like one map.
const (
	verifyShardBits  = 4
	verifyShardCount = 1 << verifyShardBits
)

// Stored sig‖msg records are copied into per-shard chunks that start at
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

// VerifyCache memoizes signature verifications. Verification is a pure
// function of (signer, message, signature) for every deterministic scheme,
// so returning a recorded verdict is semantics-preserving — flooding
// protocols re-verify the same hop signatures at every recipient, and the
// memo collapses that Θ(n·deg) repetition to one real verification per
// distinct signature (DESIGN.md §9).
//
// VerifyCache is safe for concurrent use; share one per simulated trial.
// Its accounting is a pure function of the multiset of lookups, never of
// their interleaving: every distinct (signer, sig, msg) triple counts
// exactly one miss and every other lookup of it a hit, so Stats reads the
// same at any worker count. Soundness does not depend on hashing: a hit
// requires the stored signature and message to equal the queried ones
// exactly.
type VerifyCache struct {
	shards [verifyShardCount]verifyShard
}

// verifyStores is one cache's worth of storage, the unit of recycling.
type verifyStores [verifyShardCount]verifyStore

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
		c.shards[i].verifyStore = stores[i]
	}
	return c
}

// Release empties the cache and hands its storage — the shard maps,
// cleared, and the record chunks, truncated — to the caches built after
// it, which then start at the capacity this one reached. Call it once the
// run the cache served is over and Stats has been read: Release resets the
// counters too. A released cache is an empty cache and stays usable (it
// allocates afresh); never releasing merely forgoes the recycling.
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
		stores[i] = sh.verifyStore
		sh.verifyStore, sh.cur, sh.hits, sh.misses = verifyStore{}, 0, 0, 0
		sh.mu.Unlock()
	}
	verifyStoreFree.Release(stores)
}

// shard picks k's shard (forged all-zero tags still spread by signer).
func (c *VerifyCache) shard(k verifyKey) *verifyShard {
	h := (uint32(k.signer) ^ binary.LittleEndian.Uint32(k.head[:])) * 0x9E3779B1
	return &c.shards[h>>(32-verifyShardBits)]
}

// lookup returns the verdict recorded for (k, sg, msg). Callers hold
// sh.mu.
func (sh *verifyShard) lookup(k verifyKey, sg, msg []byte) (ok, found bool) {
	e, present := sh.m[k]
	if !present {
		return false, false
	}
	for p := &e; p != nil; p = p.next {
		if p.matches(sg, msg) {
			return p.ok, true
		}
	}
	return false, false
}

// insert records the verdict for (k, sg, msg), which must not be present.
// The bytes are copied — verification inputs are built in reusable
// buffers (VerifyChain extends one in place) — into the shard's chunked
// arena; filled chunks stay alive through the entries that point into
// them, and through chunks, which is how Release finds them again. A
// recycled store arrives with its chunks empty and cur at 0, so the walk
// below fills them in order before it allocates. Callers hold sh.mu.
func (sh *verifyShard) insert(k verifyKey, sg, msg []byte, ok bool) {
	need := len(sg) + len(msg)
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
	chunk := append(append(sh.chunks[sh.cur], sg...), msg...)
	rec := chunk[len(sh.chunks[sh.cur]):len(chunk):len(chunk)]
	sh.chunks[sh.cur] = chunk
	if sh.m == nil {
		sh.m = make(map[verifyKey]verifyEntry)
	}
	first, present := sh.m[k]
	if !present {
		sh.m[k] = verifyEntry{rec: rec, ok: ok}
		return
	}
	first.next = &verifyEntry{rec: rec, ok: ok, next: first.next}
	sh.m[k] = first
}

// Verify checks sg over msg by signer, consulting the memo first. It
// reports the verdict and whether the lookup counted as a hit. A nil
// receiver always delegates to v, so call sites can plumb an optional
// cache without branching.
//
// The real verification runs outside the shard lock. Two callers that
// miss the same triple concurrently both verify, but the second to come
// back finds the first's entry and counts a hit — the counts are those of
// some sequential order of the same lookups, whatever the schedule.
func (c *VerifyCache) Verify(v Verifier, signer ids.NodeID, msg, sg []byte) (ok, hit bool) {
	if c == nil || len(sg) > maxCachedSigSize {
		return v.Verify(signer, msg, sg), false
	}
	k := keyOf(signer, sg)
	sh := c.shard(k)
	sh.mu.Lock()
	if ok, hit = sh.lookup(k, sg, msg); hit {
		sh.hits++
	}
	sh.mu.Unlock()
	if hit {
		return ok, true
	}
	ok = v.Verify(signer, msg, sg)
	sh.mu.Lock()
	if _, hit = sh.lookup(k, sg, msg); hit {
		sh.hits++
	} else {
		sh.misses++
		sh.insert(k, sg, msg, ok)
	}
	sh.mu.Unlock()
	return ok, hit
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

// Len returns the number of memoized verdicts.
func (c *VerifyCache) Len() int {
	_, misses := c.Stats()
	return int(misses)
}

// cachedVerifier decorates a Verifier with a VerifyCache.
type cachedVerifier struct {
	Verifier
	c *VerifyCache
}

func (cv cachedVerifier) Verify(signer ids.NodeID, msg, sg []byte) bool {
	ok, _ := cv.c.Verify(cv.Verifier, signer, msg, sg)
	return ok
}

// Cached returns a Verifier that consults c before delegating to v. It
// returns v unchanged when c is nil, and when v's signatures do not bind
// the message (Verifier.BindsMessage): such a scheme stamps one constant
// tag per signer, so every lookup would land on one (signer, sig) slot,
// compare the message, miss, and pay the nanosecond verifier anyway — the
// memo can only cost (DESIGN.md §9).
func Cached(v Verifier, c *VerifyCache) Verifier {
	if c == nil || !v.BindsMessage() {
		return v
	}
	return cachedVerifier{Verifier: v, c: c}
}
