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

// sendArena is reusable storage for one held batch: its send headers and
// one byte arena for the payloads. The engine contract bounds Send.Data
// lifetime to the emitting round (protocols reuse encode arenas), so a
// wrapper that holds a batch back for a later round — the stale-replay
// family — must own the bytes it retains.
type sendArena struct {
	sends []rounds.Send
	data  []byte
}

// copySends deep-copies a batch of sends into the arena, whose previous
// copy must be out of use: the payloads are laid out in one region, grown
// once to fit, and the headers reuse the arena's slice. Fan-out batches
// share one buffer across consecutive sends; the copy preserves that
// sharing (one copy per distinct buffer), which keeps a replayed multicast
// one multicast to the engine's metering.
func (b *sendArena) copySends(in []rounds.Send) []rounds.Send {
	if len(in) == 0 {
		return nil
	}
	size := 0
	var last []byte
	for _, s := range in {
		if !sameBuffer(last, s.Data) {
			last = s.Data
			size += len(s.Data)
		}
	}
	if cap(b.data) < size {
		b.data = make([]byte, 0, size)
	}
	data, out := b.data[:0], b.sends[:0]
	var lastSrc, lastCopy []byte
	for _, s := range in {
		if !sameBuffer(lastSrc, s.Data) {
			lastSrc, lastCopy = s.Data, nil
			if len(s.Data) > 0 {
				start := len(data)
				data = append(data, s.Data...)
				lastCopy = data[start:len(data):len(data)]
			}
		}
		out = append(out, rounds.Send{To: s.To, Data: lastCopy})
	}
	b.sends, b.data = out, data
	return out
}

// sameBuffer reports whether b is a, the same non-empty buffer: what
// copySends shares copies by.
func sameBuffer(a, b []byte) bool {
	return len(b) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// OutFilter wraps an inner protocol and drops every outgoing message the
// Keep predicate rejects. Incoming traffic reaches the inner protocol
// unchanged. It is the building block for "behaves correctly except
// towards ..." behaviours.
type OutFilter struct {
	Inner rounds.Protocol
	Keep  func(round int, s rounds.Send) bool
}

var _ rounds.Protocol = (*OutFilter)(nil)

// Emit implements rounds.Protocol.
func (f *OutFilter) Emit(round int) []rounds.Send {
	all := f.Inner.Emit(round)
	kept := all[:0]
	for _, s := range all {
		if f.Keep(round, s) {
			kept = append(kept, s)
		}
	}
	return kept
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
		Keep:  func(_ int, s rounds.Send) bool { return !blocked.Has(s.To) },
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
	out := b.sendBuf[:0]
	for _, to := range b.neighbors {
		out = append(out, rounds.Send{To: to, Data: b.payload})
	}
	b.sendBuf = out
	return out
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
	for _, to := range g.neighbors {
		data := make([]byte, g.size)
		g.rng.Read(data)
		out = append(out, rounds.Send{To: to, Data: data})
	}
	return out
}

// Deliver implements rounds.Protocol.
func (g *Garbage) Deliver(int, ids.NodeID, []byte) {}

// Quiescent implements rounds.Quiescer: the flooder never stops, so runs
// containing one pay the full horizon — the cost its victims pay too.
func (g *Garbage) Quiescent() bool { return len(g.neighbors) == 0 }
