package sig

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/nectar-repro/nectar/internal/freelist"
	"github.com/nectar-repro/nectar/internal/ids"
)

// check uses the memo the way a chain check does, on a record msg‖sg keyed
// by the signature: one counted lookup and, on a miss, the real
// verification and a counted store. It reports the verdict (1 = invalid)
// and whether the lookup hit.
func check(c *VerifyCache, v Verifier, signer ids.NodeID, msg, sg []byte) (verdict uint8, hit bool) {
	if verdict, hit = c.Lookup(signer, sg, msg, sg, true); hit {
		return verdict, true
	}
	if !v.Verify(signer, msg, sg) {
		verdict = 1
	}
	c.Store(signer, sg, msg, sg, verdict, true)
	return verdict, false
}

func TestVerifyCacheMemoizes(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	msg := []byte("the payload")
	sg := scheme.SignerFor(2).Sign(msg)

	verdict, hit := check(c, v, 2, msg, sg)
	if verdict != 0 || hit {
		t.Fatalf("first check: verdict=%d hit=%v, want 0/false", verdict, hit)
	}
	verdict, hit = check(c, v, 2, msg, sg)
	if verdict != 0 || !hit {
		t.Fatalf("second check: verdict=%d hit=%v, want 0/true", verdict, hit)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1 hit, 1 miss", hits, misses)
	}
	// Uncounted lookups and stores — a chain check's prefix probes — find
	// and keep records without moving the counts.
	if verdict, found := c.Lookup(2, sg, msg, sg, false); verdict != 0 || !found {
		t.Errorf("uncounted lookup: verdict=%d found=%v", verdict, found)
	}
	c.Store(2, sg, msg, sg, 0, false)
	c.Store(3, sg, msg, nil, 0, false)
	if _, found := c.Lookup(3, sg, msg, nil, false); !found {
		t.Error("uncounted store kept nothing")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("after uncounted use: stats = %d/%d, want 1/1", hits, misses)
	}
}

func TestVerifyCacheNegativeVerdictsAreCached(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	bad := make([]byte, 64)
	for i := 0; i < 2; i++ {
		if verdict, _ := check(c, v, 1, []byte("m"), bad); verdict != 1 {
			t.Fatal("forged signature verified")
		}
	}
	if hits, _ := c.Stats(); hits != 1 {
		t.Errorf("negative verdict not served from cache (hits=%d)", hits)
	}
	// A verdict is the caller's label, kept as given.
	c.Store(1, bad, []byte("head"), []byte("hops"), 7, true)
	if verdict, found := c.Lookup(1, bad, []byte("head"), []byte("hops"), true); verdict != 7 || !found {
		t.Errorf("stored label 7, read %d (found %v)", verdict, found)
	}
}

// TestVerifyCacheKeyCollisionIsSound: a (signer, sig) key already bound to
// one record must not answer for other bytes — the adversarial replay case.
// The lookup compares the record exactly, so the second query falls through
// to the real verifier and reports the correct verdict.
func TestVerifyCacheKeyCollisionIsSound(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	msgA, msgB := []byte("message A"), []byte("message B")
	sg := scheme.SignerFor(3).Sign(msgA)

	if verdict, _ := check(c, v, 3, msgA, sg); verdict != 0 {
		t.Fatal("valid signature rejected")
	}
	// Same signer+sig, different message: must NOT be served as a hit.
	verdict, hit := check(c, v, 3, msgB, sg)
	if verdict == 0 {
		t.Error("replayed signature accepted for a different message")
	}
	if hit {
		t.Error("mismatched message served from cache")
	}
	// A prefix or an extension of a stored record is another record.
	for _, other := range [][]byte{msgA[:4], append(bytes.Clone(msgA), 'x')} {
		if _, found := c.Lookup(3, sg, other, sg, false); found {
			t.Errorf("record %q answered for %q", msgA, other)
		}
	}
	// And the original binding must survive (first verdict wins the slot).
	if verdict, hit := check(c, v, 3, msgA, sg); verdict != 0 || !hit {
		t.Errorf("original entry clobbered: verdict=%d hit=%v", verdict, hit)
	}
}

// TestVerifyCacheDoesNotAliasCallerBuffers: records are looked up straight
// from delivered buffers the engine reuses, so the cache must store a
// copy, not an alias.
func TestVerifyCacheDoesNotAliasCallerBuffers(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	buf := []byte("original msg bytes")
	sg := scheme.SignerFor(0).Sign(buf)
	if verdict, _ := check(c, v, 0, buf, sg); verdict != 0 {
		t.Fatal("valid signature rejected")
	}
	for i := range buf {
		buf[i] = 'X' // caller reuses the buffer
	}
	if verdict, hit := check(c, v, 0, []byte("original msg bytes"), sg); verdict != 0 || !hit {
		t.Errorf("mutating the caller buffer corrupted the cache: verdict=%d hit=%v", verdict, hit)
	}
}

// TestVerifyCacheNilAndOversized: a nil cache reports nothing and releases
// nothing; a record keyed by a signature wider than any built-in scheme's,
// and longer than a record chunk, is memoized like any other.
func TestVerifyCacheNilAndOversized(t *testing.T) {
	var nilCache *VerifyCache
	if hits, misses := nilCache.Stats(); hits != 0 || misses != 0 {
		t.Error("nil cache reported activity")
	}
	nilCache.Release()
	scheme := NewInsecure(4, 128)
	v := scheme.Verifier()
	msg := make([]byte, 3*maxVerifyChunk)
	sg := scheme.SignerFor(1).Sign(msg)
	c := NewVerifyCache()
	for i := 0; i < 2; i++ {
		if verdict, hit := check(c, v, 1, msg, sg); verdict != 0 || hit != (i == 1) {
			t.Errorf("oversized record, check %d: verdict=%d hit=%v", i, verdict, hit)
		}
	}
}

// TestVerifyCacheConcurrent exercises the cache from many goroutines (a
// multi-worker engine); run under -race in CI.
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
				if verdict, _ := check(c, v, ids.NodeID(i), msgs[i], sigs[i]); verdict != 0 {
					t.Error("valid signature rejected")
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, misses := c.Stats(); misses != int64(len(msgs)) {
		t.Errorf("cache holds %d records, want %d", misses, len(msgs))
	}
}

// TestVerifyCacheAccountingIsScheduleIndependent: eight goroutines check an
// overlapping set of records — including messages replayed under one
// (signer, sig) and forged signatures sharing an honest one's key, the
// collision-link paths — in different orders, each also probing and
// storing uncounted on the way, as a chain check's prefix walk does. Every
// distinct record must count exactly one miss and every other counted
// lookup a hit, whatever the interleaving. Run with -race -count=10.
func TestVerifyCacheAccountingIsScheduleIndependent(t *testing.T) {
	scheme := NewHMAC(8, 1)
	v := scheme.Verifier()
	type triple struct {
		signer  ids.NodeID
		msg     []byte
		sg      []byte
		verdict uint8
	}
	var triples []triple
	for i := 0; i < 24; i++ {
		id := ids.NodeID(i % 8)
		msg := []byte{byte(i), 0xC0, 0xDE}
		triples = append(triples, triple{id, msg, scheme.SignerFor(id).Sign(msg), 0})
	}
	// Replays: triples 0..3's signatures over two other messages each.
	for i := 0; i < 4; i++ {
		for _, other := range [][]byte{[]byte("replay A"), []byte("replay B")} {
			triples = append(triples, triple{triples[i].signer, other, triples[i].sg, 1})
		}
	}
	// Forgeries sharing a memo key (signer and signature head) with an
	// honest signature but differing further in.
	for i := 4; i < 8; i++ {
		forged := append([]byte(nil), triples[i].sg...)
		forged[len(forged)-1] ^= 0xFF
		triples = append(triples, triple{triples[i].signer, triples[i].msg, forged, 1})
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
					c.Lookup(tr.signer, tr.sg, tr.msg, nil, false)
					c.Store(tr.signer, tr.sg, tr.msg, nil, tr.verdict, false)
					if verdict, _ := check(c, v, tr.signer, tr.msg, tr.sg); verdict != tr.verdict {
						t.Errorf("signer %v msg %q: verdict %d, want %d", tr.signer, tr.msg, verdict, tr.verdict)
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
}

// lookupScript is a fixed sequence of checks — repeats, forgeries, a
// replayed signature over other bytes, records long enough to roll the
// record chunks over — and the (verdict, hit) pair each returned.
func lookupScript(c *VerifyCache, scheme Scheme) (verdicts [][2]uint8, hits, misses int64) {
	v := scheme.Verifier()
	long := make([]byte, 3*minVerifyChunk)
	note := func(verdict uint8, hit bool) {
		h := uint8(0)
		if hit {
			h = 1
		}
		verdicts = append(verdicts, [2]uint8{verdict, h})
	}
	for round := 0; round < 3; round++ {
		for s := 0; s < scheme.N(); s++ {
			id := ids.NodeID(s)
			for k := 0; k < 20; k++ {
				msg := append(long[:(k%4)*minVerifyChunk/2], byte(s), byte(k))
				sg := scheme.SignerFor(id).Sign(msg)
				note(check(c, v, id, msg, sg))
				note(check(c, v, id, append(msg, 'x'), sg))       // replay over other bytes
				note(check(c, v, id, msg, make([]byte, len(sg)))) // forgery
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
		for i := range stores.shards {
			m := make(map[verifyKey]verifyEntry)
			for k := 0; k < 200; k++ {
				m[verifyKey(k)] = verifyEntry{rec: []byte("stale")}
			}
			clear(m)
			stores.shards[i].m = m
			for _, size := range []int{minVerifyChunk, 7, 2 * minVerifyChunk} {
				chunk := make([]byte, size)
				for j := range chunk {
					chunk[j] = 0xFF
				}
				stores.shards[i].chunks = append(stores.shards[i].chunks, chunk[:0])
			}
		}
		for signer := ids.NodeID(0); signer < 3; signer++ {
			b := &Board{signer: signer, posts: make(map[verifyKey]boardPost)}
			for k := 0; k < 50; k++ {
				b.posts[verifyKey(k)] = boardPost{head: []byte("stale")}
			}
			clear(b.posts)
			stores.boards = append(stores.boards, b)
		}
		return stores
	})
	c := NewVerifyCache()
	if c.Vouched(1, 1, make([]byte, 8), []byte("stale"), nil) {
		t.Error("a recycled board vouches before anything is posted")
	}
	got, hits, misses := lookupScript(c, scheme)
	if !reflect.DeepEqual(got, want) || hits != wantHits || misses != wantMisses {
		t.Errorf("poisoned store: stats %d/%d, want %d/%d; verdicts equal: %v",
			hits, misses, wantHits, wantMisses, reflect.DeepEqual(got, want))
	}

	// Dirty the storage under another key set, release it, and repeat on
	// whatever comes back: the other scheme's verdicts must not be served.
	lookupScript(c, NewHMAC(5, 12))
	c.Release()
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Errorf("released cache reports %d/%d", h, m)
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
