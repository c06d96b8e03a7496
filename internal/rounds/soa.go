package rounds

import (
	"github.com/nectar-repro/nectar/internal/ids"
)

// Struct-of-arrays routing (DESIGN.md §14). The array-of-structs layout
// stages each worker's deliveries in n per-recipient slices — n slice
// headers per shard and a scattered append per message. Above a few
// thousand nodes that layout dominates the router profile: the header
// tables alone cost n×workers headers, and every append lands on a
// different cache line. The SoA layout appends each routed message to
// three flat per-shard arrays (to/from/data, in sender-major routing
// order), then builds a stable counting-sort permutation by recipient at
// the end of the worker's routing pass. Stability keeps each shard's
// segment for a recipient in sender-major order, and the delivery phase
// gathers segments in shard (= sender-stripe) order, reproducing the AoS
// merge order exactly — the equivalence property matrix pins the two
// layouts byte-identical.

// Layout selects the router's staging data layout. Results are
// byte-identical for every value; the knob exists for performance and for
// the equivalence tests that prove that claim.
type Layout int

const (
	// LayoutAuto picks LayoutSoA at or above SoAThreshold nodes.
	LayoutAuto Layout = iota
	// LayoutAoS forces the per-recipient-slice staging layout.
	LayoutAoS
	// LayoutSoA forces the flat struct-of-arrays staging layout.
	LayoutSoA
)

// SoAThreshold is the node count at which LayoutAuto switches to the
// struct-of-arrays router: below it the n-proportional counting-sort pass
// costs more than the header tables it avoids.
const SoAThreshold = 2048

// soaShard is one worker's flat staging state. Buffers persist across
// rounds (truncated, not reallocated) and, with the staging, across runs.
type soaShard struct {
	to   []int32
	from []int32
	//nectar:allow-bufretain staged payloads are read only until this round's delivery phase ends, same contract as the AoS inbox
	data [][]byte
	// counting-sort outputs: recipient i's messages are entries
	// order[off[i]:off[i+1]] of the flat arrays, in staging order.
	off   []int32
	cur   []int32
	order []int32
}

// routeSoA meters and stages the outboxes of senders [lo, hi) into sh:
// route() with the per-recipient append replaced by flat appends.
func (e *engine) routeSoA(sh *soaShard, mt *meter, round, lo, hi int) {
	sh.to = sh.to[:0]
	sh.from = sh.from[:0]
	sh.data = sh.data[:0]
	for i := lo; i < hi; i++ {
		if len(e.outboxes[i]) == 0 {
			e.outboxes[i] = nil
			continue
		}
		mt.resetDedup()
		for k, s := range e.outboxes[i] {
			if e.admit(mt, round, i, k, s) {
				sh.to = append(sh.to, int32(s.To))
				sh.from = append(sh.from, int32(i))
				sh.data = append(sh.data, s.Data)
			}
		}
		e.outboxes[i] = nil
	}
	sh.sortByRecipient(e.n)
}

// sortByRecipient builds the stable counting-sort permutation of the
// shard's staged entries, grouped by recipient.
func (sh *soaShard) sortByRecipient(n int) {
	if cap(sh.off) < n+1 {
		sh.off = make([]int32, n+1)
		sh.cur = make([]int32, n+1)
	} else {
		sh.off = sh.off[:n+1]
		sh.cur = sh.cur[:n+1]
		for i := range sh.off {
			sh.off[i] = 0
		}
	}
	for _, t := range sh.to {
		sh.off[t+1]++
	}
	for i := 0; i < n; i++ {
		sh.off[i+1] += sh.off[i]
	}
	copy(sh.cur, sh.off)
	if cap(sh.order) < len(sh.to) {
		sh.order = make([]int32, len(sh.to))
	} else {
		sh.order = sh.order[:len(sh.to)]
	}
	for k, t := range sh.to {
		sh.order[sh.cur[t]] = int32(k)
		sh.cur[t]++
	}
}

// gather appends recipient i's segment to inbox in staging order.
func (sh *soaShard) gather(i int, inbox []delivery) []delivery {
	for _, k := range sh.order[sh.off[i]:sh.off[i+1]] {
		inbox = append(inbox, delivery{from: ids.NodeID(sh.from[k]), data: sh.data[k]})
	}
	return inbox
}
