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

// check uses the proof ledger the way NewNode's proof check does, on a
// proof msg‖sg recorded under key: a ledger lookup and, when it finds
// nothing, the real verification and the record. It reports the verdict
// and whether the lookup found it.
func check(c *VerifyCache, v Verifier, key uint64, signer ids.NodeID, msg, sg []byte) (valid, found bool) {
	proof := append(bytes.Clone(msg), sg...)
	if valid, found = c.Proven(key, proof); found {
		return valid, true
	}
	valid = v.Verify(signer, msg, sg)
	c.Prove(key, proof, valid)
	return valid, false
}

// TestVerifyCacheMemoizes: the first check of a proof calls Verify and
// records the verdict; the second, the edge's other endpoint, takes it.
func TestVerifyCacheMemoizes(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	msg := []byte("the payload")
	sg := scheme.SignerFor(2).Sign(msg)

	valid, found := check(c, v, 7, 2, msg, sg)
	if !valid || found {
		t.Fatalf("first check: valid=%v found=%v, want true/false", valid, found)
	}
	valid, found = check(c, v, 7, 2, msg, sg)
	if !valid || !found {
		t.Fatalf("second check: valid=%v found=%v, want true/true", valid, found)
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1 hit, 1 miss", hits, misses)
	}
}

// TestVerifyCacheNegativeVerdictsAreCached: a forged proof's verdict is
// recorded like a valid one's and taken by the second check.
func TestVerifyCacheNegativeVerdictsAreCached(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	bad := make([]byte, 64)
	for i := 0; i < 2; i++ {
		if valid, _ := check(c, v, 1, 1, []byte("m"), bad); valid {
			t.Fatal("forged signature verified")
		}
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("negative verdict not taken from the ledger (stats %d/%d)", hits, misses)
	}
}

// TestVerifyCacheKeyCollisionIsSound: a key already bound to one proof
// must not answer for other bytes — a forger's second proof of an edge, or
// a replayed signature over another statement. The lookup compares the
// proof exactly, so the second check falls through to the real verifier
// and reports the correct verdict; the first record keeps the key.
func TestVerifyCacheKeyCollisionIsSound(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	msgA, msgB := []byte("message A"), []byte("message B")
	sg := scheme.SignerFor(3).Sign(msgA)

	if valid, _ := check(c, v, 5, 3, msgA, sg); !valid {
		t.Fatal("valid signature rejected")
	}
	// Same key and signature, another statement: must NOT be taken.
	valid, found := check(c, v, 5, 3, msgB, sg)
	if valid {
		t.Error("replayed signature accepted for a different message")
	}
	if found {
		t.Error("mismatched proof taken from the ledger")
	}
	// A prefix or an extension of a recorded proof is another proof.
	proof := append(bytes.Clone(msgA), sg...)
	for _, other := range [][]byte{proof[:4], append(bytes.Clone(proof), 'x')} {
		if _, found := c.Proven(5, other); found {
			t.Errorf("proof %q answered for %q", proof, other)
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Errorf("stats = %d/%d, want 0 hits, 2 misses", hits, misses)
	}
	// And the original binding survives (the first verdict keeps the key).
	if valid, found := check(c, v, 5, 3, msgA, sg); !valid || !found {
		t.Errorf("original entry clobbered: valid=%v found=%v", valid, found)
	}
}

// TestVerifyCacheDoesNotAliasCallerBuffers: a proof is checked in a buffer
// its node reuses, so the ledger must record a copy, not an alias.
func TestVerifyCacheDoesNotAliasCallerBuffers(t *testing.T) {
	scheme := NewHMAC(4, 1)
	v := scheme.Verifier()
	c := NewVerifyCache()
	msg := []byte("original msg bytes")
	sg := scheme.SignerFor(0).Sign(msg)
	buf := append(bytes.Clone(msg), sg...)
	c.Prove(9, buf, v.Verify(0, msg, sg))
	for i := range buf {
		buf[i] = 'X' // the node reuses the buffer
	}
	if valid, found := check(c, v, 9, 0, msg, sg); !valid || !found {
		t.Errorf("mutating the caller buffer corrupted the ledger: valid=%v found=%v", valid, found)
	}
}

// TestVerifyCacheNilAndOversized: a nil cache reports nothing and releases
// nothing; a proof whose signature is wider than any built-in scheme's is
// recorded like any other.
func TestVerifyCacheNilAndOversized(t *testing.T) {
	var nilCache *VerifyCache
	if hits, misses := nilCache.Stats(); hits != 0 || misses != 0 {
		t.Error("nil cache reported activity")
	}
	nilCache.Release()
	scheme := NewInsecure(4, 128)
	v := scheme.Verifier()
	msg := make([]byte, 1<<14)
	sg := scheme.SignerFor(1).Sign(msg)
	c := NewVerifyCache()
	for i := 0; i < 2; i++ {
		if valid, found := check(c, v, 1, 1, msg, sg); !valid || found != (i == 1) {
			t.Errorf("oversized proof, check %d: valid=%v found=%v", i, valid, found)
		}
	}
}

// TestVerifyCacheConcurrent exercises the ledger and a board from many
// goroutines (a multi-worker engine); run under -race in CI.
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
	b := c.Board(3)
	b.Post(msgs[3], sigs[3])
	b.Publish(1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				i := round % len(msgs)
				if valid, _ := check(c, v, uint64(i), ids.NodeID(i), msgs[i], sigs[i]); !valid {
					t.Error("valid signature rejected")
					return
				}
				if !c.Vouched(3, 1, msgs[3], sigs[3], nil) {
					t.Error("a published post does not vouch")
					return
				}
			}
		}()
	}
	wg.Wait()
	if hits, misses := c.Stats(); misses != int64(len(msgs)) || hits != 2*8*200-misses {
		t.Errorf("stats = %d/%d, want %d misses (one per proof) and every other check a hit", hits, misses, len(msgs))
	}
}

// TestVerifyCacheAccountingIsScheduleIndependent: eight goroutines check an
// overlapping set of proofs — including signatures replayed over other
// statements and forgeries under a valid proof's key — in different
// orders, and ask a board about posts and non-posts. Every distinct
// recorded proof must count exactly one miss, every other proof under a
// taken key a miss each time, every other check of a recorded proof a hit,
// and every board question one or the other, whatever the interleaving.
// Run with -race -count=10.
func TestVerifyCacheAccountingIsScheduleIndependent(t *testing.T) {
	scheme := NewHMAC(8, 1)
	v := scheme.Verifier()
	type proof struct {
		key    uint64
		signer ids.NodeID
		msg    []byte
		sg     []byte
		valid  bool
	}
	var proofs []proof
	for i := 0; i < 24; i++ {
		id := ids.NodeID(i % 8)
		msg := []byte{byte(i), 0xC0, 0xDE}
		proofs = append(proofs, proof{uint64(i), id, msg, scheme.SignerFor(id).Sign(msg), true})
	}
	recorded := len(proofs)
	// Replays: proofs 0..3's signatures over two other statements each,
	// under the same keys.
	for i := 0; i < 4; i++ {
		for _, other := range [][]byte{[]byte("replay A"), []byte("replay B")} {
			proofs = append(proofs, proof{proofs[i].key, proofs[i].signer, other, proofs[i].sg, false})
		}
	}
	// Forgeries under a valid proof's key, differing in the signature's tail.
	for i := 4; i < 8; i++ {
		forged := bytes.Clone(proofs[i].sg)
		forged[len(forged)-1] ^= 0xFF
		proofs = append(proofs, proof{proofs[i].key, proofs[i].signer, proofs[i].msg, forged, false})
	}
	c := NewVerifyCache()
	b := c.Board(2)
	b.Post(proofs[2].msg, proofs[2].sg)
	b.Publish(1)
	const workers, passes = 8, 5
	// The first pass records the valid proofs before any goroutine starts,
	// so a forgery never takes a key first.
	for _, p := range proofs[:recorded] {
		check(c, v, p.key, p.signer, p.msg, p.sg)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for p := 0; p < passes; p++ {
				for i := range proofs {
					pr := proofs[(i+5*w+p)%len(proofs)] // every worker starts elsewhere
					if valid, _ := check(c, v, pr.key, pr.signer, pr.msg, pr.sg); valid != pr.valid {
						t.Errorf("signer %v msg %q: valid %v, want %v", pr.signer, pr.msg, valid, pr.valid)
						return
					}
					c.Vouched(pr.signer, 1, pr.msg, pr.sg, nil)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	checks := int64(workers * passes * len(proofs))
	vouched := int64(workers * passes) // proofs[2], the one post
	wantHits := checks - int64(workers*passes*(len(proofs)-recorded)) + vouched
	wantMisses := int64(recorded) + int64(workers*passes*(len(proofs)-recorded)) + checks - vouched
	if hits, misses := c.Stats(); hits != wantHits || misses != wantMisses {
		t.Errorf("stats = %d hits / %d misses, want %d / %d", hits, misses, wantHits, wantMisses)
	}
}

// ledgerScript is a fixed sequence of proof checks and board questions —
// repeats, forgeries, a replayed signature over other bytes, proofs long
// enough to grow the ledger several times — and what each returned.
func ledgerScript(c *VerifyCache, scheme Scheme) (verdicts [][2]bool, hits, misses int64) {
	v := scheme.Verifier()
	long := make([]byte, 3<<10)
	for s := 0; s < scheme.N(); s++ {
		b := c.Board(ids.NodeID(s))
		b.Retract()
		b.Post([]byte("post"), []byte{byte(s)})
		b.Publish(1)
	}
	for round := 0; round < 3; round++ {
		for s := 0; s < scheme.N(); s++ {
			id := ids.NodeID(s)
			for k := 0; k < 20; k++ {
				msg := append(long[:(k%4)<<9], byte(s), byte(k))
				sg := scheme.SignerFor(id).Sign(msg)
				key := uint64(s<<8 | k)
				for _, p := range [][2][]byte{{msg, sg}, {append(msg, 'x'), sg}, {msg, make([]byte, len(sg))}} {
					valid, found := check(c, v, key, id, p[0], p[1])
					verdicts = append(verdicts, [2]bool{valid, found})
				}
				vouched := c.Vouched(id, 1, []byte("post"), []byte{byte(s + k%2)}, nil)
				verdicts = append(verdicts, [2]bool{vouched, false})
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
// capacity, never content. A cache built on stores whose ledger map was
// full, whose ledger bytes hold garbage beyond length zero and whose
// boards held posts — and then one built on whatever Release gave back,
// under a different key set — must answer and count exactly like a cache
// built on nothing.
func TestVerifyCachePoisonedStoreChangesNothing(t *testing.T) {
	withVerifyStores(t, func() *verifyStores { return new(verifyStores) })
	scheme := NewHMAC(5, 11)
	want, wantHits, wantMisses := ledgerScript(NewVerifyCache(), scheme)

	withVerifyStores(t, func() *verifyStores {
		stores := new(verifyStores)
		stores.proofs = make(map[uint64]ledgerEntry)
		for k := 0; k < 200; k++ {
			stores.proofs[uint64(k)] = ledgerEntry{end: 5, valid: true}
		}
		clear(stores.proofs)
		stores.recs = bytes.Repeat([]byte{0xFF}, 4<<10)[:0]
		for range 3 {
			b := &Board{index: make(map[uint64]int), payloads: bytes.Repeat([]byte{0xFF}, 1<<10)[:0]}
			for k := 0; k < 50; k++ {
				b.index[uint64(k)] = k
				b.posts = append(b.posts, boardPost{head: []byte("stale"), unsigned: 1})
			}
			clear(b.index)
			b.posts = b.posts[:0]
			stores.boards = append(stores.boards, b)
		}
		return stores
	})
	c := NewVerifyCache()
	if c.Vouched(1, 1, []byte("stale"), nil, nil) {
		t.Error("a recycled board vouches before anything is posted")
	}
	if _, found := c.Proven(0, nil); found {
		t.Error("a recycled ledger holds a proof before anything is recorded")
	}
	got, hits, misses := ledgerScript(c, scheme)
	if misses--; !reflect.DeepEqual(got, want) || hits != wantHits || misses != wantMisses { // the unvouched probe above is a miss
		t.Errorf("poisoned store: stats %d/%d, want %d/%d; verdicts equal: %v",
			hits, misses, wantHits, wantMisses, reflect.DeepEqual(got, want))
	}

	// Dirty the storage under another key set, release it, and repeat on
	// whatever comes back: the other scheme's verdicts must not be served.
	ledgerScript(c, NewHMAC(5, 12))
	c.Release()
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Errorf("released cache reports %d/%d", h, m)
	}
	for _, again := range []*VerifyCache{NewVerifyCache(), c} { // recycled storage; the released cache itself
		got, hits, misses = ledgerScript(again, scheme)
		if !reflect.DeepEqual(got, want) || hits != wantHits || misses != wantMisses {
			t.Errorf("after release: stats %d/%d, want %d/%d; verdicts equal: %v",
				hits, misses, wantHits, wantMisses, reflect.DeepEqual(got, want))
		}
		again.Release()
	}
}

// TestRepeatedRunsShareVerifyStores mirrors the engine's
// TestRepeatedRunsShareStaging for the cache: the stores one wave of
// caches releases are the ones the next wave is built on, whatever the
// collector did and wherever the scheduler put the callers in between. A
// wave of k concurrent caches — k epochs of a dynamic run in flight — can
// need k stores, and no number of waves needs more.
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
					ledgerScript(c, scheme)
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
