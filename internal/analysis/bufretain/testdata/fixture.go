// Fixture for the bufretain analyzer: retaining engine-owned buffers
// or zero-copy decodes past the call fires; deep copies, fresh
// allocations, and the copy-then-store idiom do not.
package fixture

import (
	"sync"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/rounds"
)

type retainer struct {
	stash   []byte
	batch   []nectar.EdgeMsg
	handler func()
	ch      chan []byte
}

func (p *retainer) Deliver(round int, from ids.NodeID, data []byte) {
	p.stash = data                         // want `storing a wire-aliased value into field stash`
	p.stash = append([]byte(nil), data...) // fresh backing: fine
	d := data[4:]
	p.stash = d                     // want `field stash`
	p.ch <- data                    // want `sending a wire-aliased value`
	go p.use(data)                  // want `passing a wire-aliased value to a goroutine`
	go func() { _ = data }()        // want `goroutine closure captures`
	p.handler = func() { _ = data } // want `field handler`
	use(data)                       // synchronous call: fine
}

func (p *retainer) use(b []byte) {}

func use(b []byte) {}

// keep receives an EdgeMsg that may alias a decode buffer.
func (p *retainer) keep(m nectar.EdgeMsg) {
	p.batch = append(p.batch, m)        // want `field batch`
	p.batch = append(p.batch, m.Copy()) // deep copy: fine
	m = m.Copy()
	p.batch = append(p.batch, m) // copy-then-store idiom: fine
}

type wrapper struct {
	inner rounds.Protocol
	held  []rounds.Send
	nbrs  []ids.NodeID
}

// Emit results stay backed by the inner protocol's encode arena.
func (w *wrapper) Emit(round int) []rounds.Send {
	out := w.inner.Emit(round)
	w.held = out            // want `field held`
	w.held = copySends(out) // sanitized by a copy helper: fine
	return nil
}

// A Send's recipient list is borrowed like its payload: a filter's kept
// lists are scratch its next Emit rewrites, so holding one for a replay
// needs a copy too.
type replayer struct {
	inner rounds.Protocol
	lists [][]ids.NodeID
	held  rounds.Send
}

func (r *replayer) Emit(round int) []rounds.Send {
	out := r.inner.Emit(round)
	for _, s := range out {
		kept := s.To[:0]
		for _, to := range s.To {
			if to%2 == 0 {
				kept = append(kept, to)
			}
		}
		r.lists = append(r.lists, kept)                                      // want `field lists`
		r.lists = append(r.lists, append([]ids.NodeID(nil), kept...))        // fresh backing: fine
		r.held = rounds.Send{To: kept, Data: append([]byte(nil), s.Data...)} // want `field held`
	}
	return out
}

func (r *replayer) Deliver(round int, from ids.NodeID, data []byte) {}

func (w *wrapper) OnTopology(round int, neighbors []ids.NodeID) {
	w.nbrs = neighbors                               // want `field nbrs`
	w.nbrs = append([]ids.NodeID(nil), neighbors...) // fresh backing: fine
}

func (w *wrapper) suppressedEmit(round int) {
	//nectar:allow-bufretain fixture: consumer drains the batch within the round
	w.held = w.inner.Emit(round)
}

// A free list launders nothing (DESIGN.md §9): a pooled slot is a field
// like any other, so parking the delivered buffer in one is flagged even
// though the slot goes straight back to its pool — the next borrower would
// find the alias there. Run-lifetime scratch may only carry slots its
// owner filled with copies and zeroed on the way back.
type slot struct{ data []byte }

var slots = sync.Pool{New: func() any { return new(slot) }}

type recycler struct{}

func (recycler) Deliver(round int, from ids.NodeID, data []byte) {
	s := slots.Get().(*slot)
	s.data = data // want `field data`
	slots.Put(s)  // returned un-zeroed: the store above is the finding

	s = slots.Get().(*slot)
	s.data = append([]byte(nil), data...) // a copy the slot owns: fine
	s.data = nil                          // and zeroed before it goes back
	slots.Put(s)
}

func (recycler) Emit(round int) []rounds.Send { return nil }

func copySends(in []rounds.Send) []rounds.Send {
	out := make([]rounds.Send, len(in))
	for i, s := range in {
		s.To = append([]ids.NodeID(nil), s.To...)
		s.Data = append([]byte(nil), s.Data...)
		out[i] = s
	}
	return out
}
