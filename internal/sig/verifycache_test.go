package sig

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/nectar-repro/nectar/internal/freelist"
	"github.com/nectar-repro/nectar/internal/ids"
)

func TestVerifyCacheMemoizes(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	msg := []byte("the payload")
	sg := scheme.SignerFor(2).Sign(msg)

	ok, hit := c.Verify(v, 2, msg, sg)
	if !ok || hit {
		t.Fatalf("first verify: ok=%v hit=%v, want true/false", ok, hit)
	}
	ok, hit = c.Verify(v, 2, msg, sg)
	if !ok || !hit {
		t.Fatalf("second verify: ok=%v hit=%v, want true/true", ok, hit)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1 hit, 1 miss", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
}

func TestVerifyCacheNegativeVerdictsAreCached(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	bad := make([]byte, 64)
	for i := 0; i < 2; i++ {
		if ok, _ := c.Verify(v, 1, []byte("m"), bad); ok {
			t.Fatal("forged signature verified")
		}
	}
	if hits, _ := c.Stats(); hits != 1 {
		t.Errorf("negative verdict not served from cache (hits=%d)", hits)
	}
}

// TestVerifyCacheKeyCollisionIsSound: a (signer, sig) key already bound to
// one message must not answer for a different message — the adversarial
// replay case. The lookup compares messages exactly, so the second query
// falls through to the real verifier and reports the correct verdict.
func TestVerifyCacheKeyCollisionIsSound(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	msgA, msgB := []byte("message A"), []byte("message B")
	sg := scheme.SignerFor(3).Sign(msgA)

	if ok, _ := c.Verify(v, 3, msgA, sg); !ok {
		t.Fatal("valid signature rejected")
	}
	// Same signer+sig, different message: must NOT be served as a hit.
	ok, hit := c.Verify(v, 3, msgB, sg)
	if ok {
		t.Error("replayed signature accepted for a different message")
	}
	if hit {
		t.Error("mismatched message served from cache")
	}
	// And the original binding must survive (first verdict wins the slot).
	if ok, hit := c.Verify(v, 3, msgA, sg); !ok || !hit {
		t.Errorf("original entry clobbered: ok=%v hit=%v", ok, hit)
	}
}

// TestVerifyCacheDoesNotAliasCallerBuffers: VerifyChain extends its
// signing-input buffer in place after handing it to the verifier, so the
// cache must store a copy, not an alias.
func TestVerifyCacheDoesNotAliasCallerBuffers(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	buf := []byte("original msg bytes")
	sg := scheme.SignerFor(0).Sign(buf)
	if ok, _ := c.Verify(v, 0, buf, sg); !ok {
		t.Fatal("valid signature rejected")
	}
	for i := range buf {
		buf[i] = 'X' // caller reuses the buffer
	}
	if ok, hit := c.Verify(v, 0, []byte("original msg bytes"), sg); !ok || !hit {
		t.Errorf("mutating the caller buffer corrupted the cache: ok=%v hit=%v", ok, hit)
	}
}

func TestVerifyCacheNilAndOversized(t *testing.T) {
	scheme := NewInsecure(4, 128) // 128-byte sigs exceed the cache slot
	v := scheme.Verifier()
	var nilCache *VerifyCache
	msg := []byte("m")
	sg := scheme.SignerFor(1).Sign(msg)
	if ok, hit := nilCache.Verify(v, 1, msg, sg); !ok || hit {
		t.Errorf("nil cache: ok=%v hit=%v, want true/false", ok, hit)
	}
	if hits, misses := nilCache.Stats(); hits != 0 || misses != 0 {
		t.Error("nil cache reported activity")
	}
	if nilCache.Len() != 0 {
		t.Error("nil cache reported entries")
	}
	c := NewVerifyCache()
	for i := 0; i < 2; i++ {
		if ok, hit := c.Verify(v, 1, msg, sg); !ok || hit {
			t.Errorf("oversized sig round %d: ok=%v hit=%v, want true/false", i, ok, hit)
		}
	}
	if c.Len() != 0 {
		t.Error("oversized signature was cached")
	}
}

func TestCachedVerifierWrapping(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	if got := Cached(v, nil); got != v {
		t.Error("Cached(v, nil) should return v unchanged")
	}
	c := NewVerifyCache()
	cv := Cached(v, c)
	if cv.SigSize() != v.SigSize() {
		t.Errorf("SigSize %d, want %d", cv.SigSize(), v.SigSize())
	}
	msg := []byte("m")
	sg := scheme.SignerFor(2).Sign(msg)
	if !cv.Verify(2, msg, sg) || !cv.Verify(2, msg, sg) {
		t.Fatal("cached verifier rejected a valid signature")
	}
	if hits, _ := c.Stats(); hits != 1 {
		t.Errorf("wrapped verifier hits = %d, want 1", hits)
	}
}

// TestVerifyCacheConcurrent exercises the cache from many goroutines (the
// engine-parallel configuration); run under -race in CI.
func TestVerifyCacheConcurrent(t *testing.T) {
	scheme := NewHMAC(8, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	msgs := make([][]byte, 8)
	sigs := make([][]byte, 8)
	for i := range msgs {
		msgs[i] = []byte{byte(i), 0xBE, 0xEF}
		sigs[i] = scheme.SignerFor(ids.NodeID(i)).Sign(msgs[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				i := round % len(msgs)
				if ok, _ := c.Verify(v, ids.NodeID(i), msgs[i], sigs[i]); !ok {
					t.Error("valid signature rejected")
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != len(msgs) {
		t.Errorf("cache holds %d entries, want %d", c.Len(), len(msgs))
	}
}

// TestVerifyCacheAccountingIsScheduleIndependent: eight goroutines look up
// an overlapping set of triples — including messages replayed under one
// (signer, sig) and forged signatures sharing an honest one's key, the
// collision-link paths — in different orders. Every
// distinct triple must count exactly one miss and every other lookup a
// hit, whatever the interleaving. Run with -race -count=10.
func TestVerifyCacheAccountingIsScheduleIndependent(t *testing.T) {
	scheme := NewHMAC(8, 1)
	v := scheme.Verifier()
	type triple struct {
		signer ids.NodeID
		msg    []byte
		sg     []byte
		ok     bool
	}
	var triples []triple
	for i := 0; i < 24; i++ {
		id := ids.NodeID(i % 8)
		msg := []byte{byte(i), 0xC0, 0xDE}
		triples = append(triples, triple{id, msg, scheme.SignerFor(id).Sign(msg), true})
	}
	// Replays: triples 0..3's signatures over two other messages each.
	for i := 0; i < 4; i++ {
		for _, other := range [][]byte{[]byte("replay A"), []byte("replay B")} {
			triples = append(triples, triple{triples[i].signer, other, triples[i].sg, false})
		}
	}
	// Forgeries sharing a memo key (signer and signature head) with an
	// honest signature but differing further in.
	for i := 4; i < 8; i++ {
		forged := append([]byte(nil), triples[i].sg...)
		forged[len(forged)-1] ^= 0xFF
		triples = append(triples, triple{triples[i].signer, triples[i].msg, forged, false})
	}
	const workers, passes = 8, 5
	c := NewVerifyCache()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for p := 0; p < passes; p++ {
				for i := range triples {
					tr := triples[(i+5*w+p)%len(triples)] // every worker starts elsewhere
					if ok, _ := c.Verify(v, tr.signer, tr.msg, tr.sg); ok != tr.ok {
						t.Errorf("signer %v msg %q: verdict %v, want %v", tr.signer, tr.msg, ok, tr.ok)
						return
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	lookups, distinct := int64(workers*passes*len(triples)), int64(len(triples))
	hits, misses := c.Stats()
	if hits != lookups-distinct || misses != distinct {
		t.Errorf("stats = %d hits / %d misses, want %d / %d", hits, misses, lookups-distinct, distinct)
	}
	if c.Len() != len(triples) {
		t.Errorf("cache holds %d verdicts, want %d", c.Len(), len(triples))
	}
}

// TestCachedSkipsUnboundSchemes: a scheme whose signature does not bind
// the message stamps one constant tag per signer, so the memo could only
// collide; Cached must hand such a verifier back untouched, while the
// binding schemes keep memoizing.
func TestCachedSkipsUnboundSchemes(t *testing.T) {
	payload := []byte("edge statement")
	for _, name := range Names() {
		scheme := ByName(name, 6, 1)
		v := scheme.Verifier()
		c := NewVerifyCache()
		cv := Cached(v, c)
		chain := buildChainN(scheme, payload, 5)
		for i := 0; i < 3; i++ {
			if !VerifyChain(cv, payload, chain) {
				t.Fatalf("%s: valid chain rejected", name)
			}
		}
		hits, misses := c.Stats()
		if v.BindsMessage() {
			if hits != 10 || misses != 5 {
				t.Errorf("%s: stats = %d/%d, want 10 hits, 5 misses", name, hits, misses)
			}
		} else if hits+misses != 0 {
			t.Errorf("%s: %d memo lookups for a scheme that does not bind the message", name, hits+misses)
		}
	}
}

// lookupScript is a fixed sequence of verifications — repeats, forgeries,
// a replayed signature over other bytes, messages long enough to roll the
// record chunks over — and the (verdict, hit) pair each returned.
func lookupScript(c *VerifyCache, scheme Scheme) (verdicts [][2]bool, hits, misses int64) {
	v := scheme.Verifier()
	long := make([]byte, 3*minVerifyChunk)
	for round := 0; round < 3; round++ {
		for s := 0; s < scheme.N(); s++ {
			id := ids.NodeID(s)
			for k := 0; k < 20; k++ {
				msg := append(long[:(k%4)*minVerifyChunk/2], byte(s), byte(k))
				sg := scheme.SignerFor(id).Sign(msg)
				ok, hit := c.Verify(v, id, msg, sg)
				verdicts = append(verdicts, [2]bool{ok, hit})
				ok, hit = c.Verify(v, id, append(msg, 'x'), sg) // replay over other bytes
				verdicts = append(verdicts, [2]bool{ok, hit})
				ok, hit = c.Verify(v, id, msg, make([]byte, len(sg))) // forgery
				verdicts = append(verdicts, [2]bool{ok, hit})
			}
		}
	}
	hits, misses = c.Stats()
	return verdicts, hits, misses
}

// withVerifyStores swaps the package free list for an empty one whose every
// miss is served by fresh, and restores a clean one afterwards.
func withVerifyStores(t *testing.T, fresh func() *verifyStores) {
	t.Helper()
	verifyStoreFree = freelist.New(fresh)
	t.Cleanup(func() { verifyStoreFree = freelist.New(func() *verifyStores { return new(verifyStores) }) })
}

// TestVerifyCachePoisonedStoreChangesNothing: the store free list promises
// capacity, never content. A cache built on stores whose maps were full
// and whose chunks hold garbage beyond length zero — and then one built on
// whatever Release gave back, under a different key set — must answer and
// count exactly like a cache built on nothing.
func TestVerifyCachePoisonedStoreChangesNothing(t *testing.T) {
	withVerifyStores(t, func() *verifyStores { return new(verifyStores) })
	scheme := NewHMAC(5, 11)
	want, wantHits, wantMisses := lookupScript(NewVerifyCache(), scheme)

	withVerifyStores(t, func() *verifyStores {
		stores := new(verifyStores)
		for i := range stores {
			m := make(map[verifyKey]verifyEntry)
			for k := 0; k < 200; k++ {
				m[verifyKey{signer: ids.NodeID(k)}] = verifyEntry{rec: []byte("stale"), ok: true}
			}
			clear(m)
			stores[i].m = m
			for _, size := range []int{minVerifyChunk, 7, 2 * minVerifyChunk} {
				chunk := make([]byte, size)
				for j := range chunk {
					chunk[j] = 0xFF
				}
				stores[i].chunks = append(stores[i].chunks, chunk[:0])
			}
		}
		return stores
	})
	c := NewVerifyCache()
	got, hits, misses := lookupScript(c, scheme)
	if !reflect.DeepEqual(got, want) || hits != wantHits || misses != wantMisses {
		t.Errorf("poisoned store: stats %d/%d, want %d/%d; verdicts equal: %v",
			hits, misses, wantHits, wantMisses, reflect.DeepEqual(got, want))
	}

	// Dirty the storage under another key set, release it, and repeat on
	// whatever comes back: the other scheme's verdicts must not be served.
	lookupScript(c, NewHMAC(5, 12))
	c.Release()
	if h, m := c.Stats(); h != 0 || m != 0 || c.Len() != 0 {
		t.Errorf("released cache reports %d/%d, len %d", h, m, c.Len())
	}
	for _, again := range []*VerifyCache{NewVerifyCache(), c} { // recycled storage; the released cache itself
		got, hits, misses = lookupScript(again, scheme)
		if !reflect.DeepEqual(got, want) || hits != wantHits || misses != wantMisses {
			t.Errorf("after release: stats %d/%d, want %d/%d; verdicts equal: %v",
				hits, misses, wantHits, wantMisses, reflect.DeepEqual(got, want))
		}
	}
}

// TestRepeatedRunsShareVerifyStores mirrors the engine's
// TestRepeatedRunsShareStaging for the memo: the stores one wave of caches
// releases are the ones the next wave is built on, whatever the collector
// did and wherever the scheduler put the callers in between. A wave of k
// concurrent caches — k epochs of a dynamic run in flight — can need k
// stores, and no number of waves needs more.
func TestRepeatedRunsShareVerifyStores(t *testing.T) {
	scheme := NewHMAC(5, 11)
	for _, atOnce := range []int{1, 2, freelist.Slots} {
		var made atomic.Int32
		withVerifyStores(t, func() *verifyStores { made.Add(1); return new(verifyStores) })
		for wave := 0; wave < 10; wave++ {
			var held, done sync.WaitGroup
			held.Add(atOnce)
			done.Add(atOnce)
			for k := 0; k < atOnce; k++ {
				go func() { // a fresh goroutine, on whichever P is free
					defer done.Done()
					c := NewVerifyCache()
					held.Done()
					held.Wait() // the whole wave holds its stores at once
					lookupScript(c, scheme)
					c.Release()
				}()
			}
			done.Wait()
			runtime.GC()
			runtime.GC() // two collections empty a sync.Pool
		}
		if n := int(made.Load()); n < 1 || n > atOnce {
			t.Errorf("10 waves of %d caches built %d stores, want 1..%d", atOnce, n, atOnce)
		}
	}
}
