// Package adversary implements the Byzantine behaviours used in the
// paper's evaluation (§V-D) and in robustness tests.
//
// Byzantine nodes may deviate arbitrarily from their protocol — drop,
// modify or inject messages — but cannot violate network assumptions
// (enforced by the rounds engine: messages only travel on edges) and
// cannot forge signatures of correct nodes (enforced by the sig schemes:
// an adversary holds only its own Signer capability, plus the Signers of
// fellow Byzantine nodes it colludes with).
//
// Every adversary implements rounds.Protocol, so experiment setups freely
// mix correct and Byzantine nodes in one engine run.
package adversary

import (
	"math/rand"
	"slices"

	"github.com/nectar-repro/nectar/internal/bloom"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
)

// Silent is the crash-like adversary: it never sends and ignores
// everything it receives. (A Byzantine node pretending to have crashed is
// indistinguishable from a real crash to the rest of the system.)
type Silent struct{}

var _ rounds.Protocol = Silent{}

// Emit implements rounds.Protocol.
func (Silent) Emit(int) []rounds.Send { return nil }

// Deliver implements rounds.Protocol.
func (Silent) Deliver(int, ids.NodeID, []byte) {}

// Quiescent implements rounds.Quiescer: a crashed node never speaks.
func (Silent) Quiescent() bool { return true }

// sendArena is reusable storage for one held batch: its send headers, one
// byte arena for the payloads and one for the recipient lists. The engine
// contract bounds a Send's Data and To to the emitting round (protocols
// reuse encode arenas, filters their list scratch), so a wrapper that
// holds a batch back for a later round — the stale-replay family — must
// own everything it retains.
type sendArena struct {
	sends []rounds.Send
	data  []byte
	to    []ids.NodeID
}

// copySends deep-copies a batch of sends into the arena, whose previous
// copy must be out of use: payloads and lists are laid out in one region
// each, grown once to fit, and the headers reuse the arena's slice.
// Consecutive sends to one list — a node's relays to its neighbours —
// share one copy of it.
func (b *sendArena) copySends(in []rounds.Send) []rounds.Send {
	if len(in) == 0 {
		return nil
	}
	size, listed := 0, 0
	for _, s := range in {
		size, listed = size+len(s.Data), listed+len(s.To)
	}
	if cap(b.data) < size {
		b.data = make([]byte, 0, size)
	}
	if cap(b.to) < listed {
		b.to = make([]ids.NodeID, 0, listed)
	}
	data, to, out := b.data[:0], b.to[:0], b.sends[:0]
	var lastSrc, lastCopy []ids.NodeID
	for _, s := range in {
		if !sameList(lastSrc, s.To) {
			start := len(to)
			to = append(to, s.To...)
			lastSrc, lastCopy = s.To, to[start:len(to):len(to)]
		}
		start := len(data)
		data = append(data, s.Data...)
		out = append(out, rounds.Send{To: lastCopy, Skip: s.Skip, Data: data[start:len(data):len(data)]})
	}
	b.sends, b.data, b.to = out, data, to
	return out
}

// sameList reports whether a and b are one list: the same length and, when
// not empty, the same first element.
func sameList(a, b []ids.NodeID) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// listFilter removes recipients from a batch of sends in place. Its lists
// are scratch for one batch: the next filter call reuses them.
type listFilter struct {
	ids []ids.NodeID // the kept lists, back to back
	pos []int        // pos[p]: where listing p of the last input list is kept, or -1
}

// apply keeps, of every send in batch, the listings keep accepts, and
// returns the batch compacted in place. A send keeping all its listings
// passes unchanged; one keeping none is dropped; the others get the kept
// listings as their list — written once per distinct input list, so sends
// that shared one still share one — and their Skip moved along with the
// skipped listing. keep must depend on the recipient alone.
func (f *listFilter) apply(batch []rounds.Send, keep func(ids.NodeID) bool) []rounds.Send {
	f.ids = f.ids[:0]
	var in, kept []ids.NodeID
	out := batch[:0]
	for _, s := range batch {
		if !sameList(in, s.To) {
			in, f.pos = s.To, f.pos[:0]
			start := len(f.ids)
			for _, to := range in {
				p := -1
				if keep(to) {
					p = len(f.ids) - start
					f.ids = append(f.ids, to)
				}
				f.pos = append(f.pos, p)
			}
			kept = f.ids[start:len(f.ids):len(f.ids)]
		}
		if len(kept) < len(in) {
			skip := 0
			if k := s.Skip - 1; k >= 0 && k < len(in) {
				skip = f.pos[k] + 1
			}
			s.To, s.Skip = kept, skip
		}
		if len(s.To) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// OutFilter wraps an inner protocol and removes outgoing messages: every
// send Drop reports, and every recipient Keep rejects (either may be nil).
// Incoming traffic reaches the inner protocol unchanged. It is the
// building block for "behaves correctly except towards ..." behaviours.
type OutFilter struct {
	Inner rounds.Protocol
	// Drop reports whether a send of the round's is dropped whole.
	Drop func(round int, data []byte) bool
	// Keep reports whether a recipient still gets the round's sends.
	Keep  func(round int, to ids.NodeID) bool
	lists listFilter
}

var _ rounds.Protocol = (*OutFilter)(nil)

// Emit implements rounds.Protocol.
func (f *OutFilter) Emit(round int) []rounds.Send {
	out := f.Inner.Emit(round)
	if f.Drop != nil {
		out = slices.DeleteFunc(out, func(s rounds.Send) bool { return f.Drop(round, s.Data) })
	}
	if f.Keep != nil {
		out = f.lists.apply(out, func(to ids.NodeID) bool { return f.Keep(round, to) })
	}
	return out
}

// Deliver implements rounds.Protocol.
func (f *OutFilter) Deliver(round int, from ids.NodeID, data []byte) {
	f.Inner.Deliver(round, from, data)
}

// Quiescent implements rounds.Quiescer: filtering only removes output, so
// the wrapper is quiescent exactly when its inner protocol is. An inner
// protocol that cannot attest quiescence keeps the whole run on the full
// horizon (the engine requires every node to implement Quiescer).
func (f *OutFilter) Quiescent() bool {
	q, ok := f.Inner.(rounds.Quiescer)
	return ok && q.Quiescent()
}

// SplitBrain is the paper's bridge attack behaviour (§V-D): the Byzantine
// node runs the protocol correctly towards one side of the network and
// acts as crashed towards the `blocked` side. Works for any protocol
// (NECTAR, MtG, MtGv2).
func SplitBrain(inner rounds.Protocol, blocked ids.Set) rounds.Protocol {
	return &OutFilter{
		Inner: inner,
		Keep:  func(_ int, to ids.NodeID) bool { return !blocked.Has(to) },
	}
}

// BloomPoison is the MtG attack of §V-D: every round the adversary sends
// an all-ones Bloom filter to every neighbor, making correct nodes believe
// every process is reachable. Filter geometry must match the deployment's
// static configuration.
type BloomPoison struct {
	neighbors []ids.NodeID
	payload   []byte
	sendBuf   []rounds.Send // refilled every round: OutFilter compacts in place
}

var _ rounds.Protocol = (*BloomPoison)(nil)

// NewBloomPoison builds the poisoning adversary.
func NewBloomPoison(neighbors []ids.NodeID, filterBits, filterHashes int) *BloomPoison {
	f := bloom.New(filterBits, filterHashes)
	f.Fill()
	return &BloomPoison{
		neighbors: append([]ids.NodeID(nil), neighbors...),
		payload:   f.MarshalBinary(),
	}
}

// Emit implements rounds.Protocol.
func (b *BloomPoison) Emit(int) []rounds.Send {
	b.sendBuf = append(b.sendBuf[:0], rounds.Send{To: b.neighbors, Data: b.payload})
	return b.sendBuf
}

// Deliver implements rounds.Protocol.
func (b *BloomPoison) Deliver(int, ids.NodeID, []byte) {}

// Quiescent implements rounds.Quiescer: the poisoner floods every round.
func (b *BloomPoison) Quiescent() bool { return len(b.neighbors) == 0 }

// Garbage floods every neighbor with random bytes each round — a
// robustness probe: correct protocols must discard it all without state
// damage.
type Garbage struct {
	neighbors []ids.NodeID
	rng       *rand.Rand
	size      int
}

var _ rounds.Protocol = (*Garbage)(nil)

// NewGarbage builds a garbage flooder emitting size-byte payloads.
func NewGarbage(neighbors []ids.NodeID, seed int64, size int) *Garbage {
	return &Garbage{
		neighbors: append([]ids.NodeID(nil), neighbors...),
		rng:       rand.New(rand.NewSource(seed)),
		size:      size,
	}
}

// Emit implements rounds.Protocol.
func (g *Garbage) Emit(int) []rounds.Send {
	out := make([]rounds.Send, 0, len(g.neighbors))
	for k := range g.neighbors {
		data := make([]byte, g.size)
		g.rng.Read(data)
		out = append(out, rounds.Send{To: g.neighbors[k : k+1], Data: data})
	}
	return out
}

// Deliver implements rounds.Protocol.
func (g *Garbage) Deliver(int, ids.NodeID, []byte) {}

// Quiescent implements rounds.Quiescer: the flooder never stops, so runs
// containing one pay the full horizon — the cost its victims pay too.
func (g *Garbage) Quiescent() bool { return len(g.neighbors) == 0 }
