package main

import (
	"time"

	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

// span is one traced interval at a layer boundary. Explicit spans (one
// call: an op, a build, an engine run) have Calls = 1 and Busy = End −
// Start. Leaf calls — Emit, Deliver, Sign, Verify, millions per op — are
// aggregated into one span per (op, round, name, parent): Start is the
// first call's start, End the last call's end, Busy the summed call
// windows, Calls their number. A span's self time is its Busy minus its
// children's Busy.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 = no parent
	Op     int    `json:"op"`     // index of the traced op; -1 = set-up
	Name   string `json:"name"`
	Round  int    `json:"round,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int64  `json:"calls"`
}

// leafKind names an aggregated leaf call. Sign and Verify are split by
// where they happen, so that emit and deliver self times can be taken.
type leafKind int

const (
	leafNone leafKind = iota - 1
	leafEmit
	leafDeliver
	leafSign            // outside Emit: set-up proofs
	leafVerify          // outside Deliver: set-up proof checks
	leafSignInEmit      // child of the round's emit span
	leafVerifyInDeliver // child of the round's deliver span
	nLeaf
)

var leafNames = [nLeaf]string{"nectar.emit", "nectar.deliver", "sig.sign", "sig.verify", "sig.sign", "sig.verify"}

type leafAgg struct{ first, last, busy, calls int64 }

// probe records spans and counters around the calls a composed op makes
// into each layer. It lives in the benchmark: the program under test only
// sees ordinary sig.Scheme and rounds.Protocol values. A nil *probe is
// valid and records nothing, so the same composition code serves the
// proxy-free baseline runs. Not safe for concurrent use: traced ops pin
// every engine and scheduler to one worker.
type probe struct {
	t0     time.Time
	spans  []span
	open   []int // stack of open explicit spans
	op     int
	round  int
	in     leafKind // the proxy call in progress, leafNone outside
	leaf   [nLeaf]leafAgg
	counts map[string]float64
	sample *msgSample
}

func newProbe() *probe {
	return &probe{t0: time.Now(), op: -1, in: leafNone, counts: map[string]float64{}}
}

func (p *probe) now() int64 { return int64(time.Since(p.t0)) }

// begin opens an explicit span under the innermost open one.
func (p *probe) begin(name string) int {
	if p == nil {
		return -1
	}
	p.flushLeaves()
	parent := -1
	if len(p.open) > 0 {
		parent = p.open[len(p.open)-1]
	}
	id := len(p.spans)
	p.spans = append(p.spans, span{ID: id, Parent: parent, Op: p.op, Name: name, Start: p.now(), Calls: 1})
	p.open = append(p.open, id)
	return id
}

// end closes the span begin returned, which must be the innermost.
func (p *probe) end(id int) {
	if p == nil {
		return
	}
	p.flushLeaves()
	s := &p.spans[id]
	s.End = p.now()
	s.Busy = s.End - s.Start
	p.open = p.open[:len(p.open)-1]
}

// add accumulates a counter taken at a layer boundary.
func (p *probe) add(name string, v float64) {
	if p != nil {
		p.counts[name] += v
	}
}

func (p *probe) record(k leafKind, start int64) {
	end := p.now()
	a := &p.leaf[k]
	if a.calls == 0 {
		a.first = start
	}
	a.last = end
	a.busy += end - start
	a.calls++
}

// setRound closes the previous round's leaf spans when the engine moves on.
func (p *probe) setRound(r int) {
	if r != p.round {
		p.flushLeaves()
		p.round = r
	}
}

// flushLeaves turns the pending leaf aggregates into spans: emit and
// deliver under the innermost open span, sign-in-emit and
// verify-in-deliver under those.
func (p *probe) flushLeaves() {
	parent := -1
	if len(p.open) > 0 {
		parent = p.open[len(p.open)-1]
	}
	parents := [nLeaf]int{parent, parent, parent, parent, -1, -1}
	for k := leafEmit; k < nLeaf; k++ {
		a := p.leaf[k]
		if a.calls == 0 {
			continue
		}
		id := len(p.spans)
		p.spans = append(p.spans, span{ID: id, Parent: parents[k], Op: p.op, Name: leafNames[k], Round: p.round,
			Start: a.first, End: a.last, Busy: a.busy, Calls: a.calls})
		switch k {
		case leafEmit:
			parents[leafSignInEmit] = id
		case leafDeliver:
			parents[leafVerifyInDeliver] = id
		}
		p.leaf[k] = leafAgg{}
	}
}

// spanCostNs calibrates the clock cost that falls inside a leaf call's
// own window: the mean recorded duration of an empty leaf.
func spanCostNs() float64 {
	p := newProbe()
	const n = 1 << 18
	for i := 0; i < n; i++ {
		p.record(leafEmit, p.now())
	}
	return float64(p.leaf[leafEmit].busy) / n
}

// scheme wraps s so that every Sign and Verify is timed.
func (p *probe) scheme(s sig.Scheme) sig.Scheme {
	if p == nil {
		return s
	}
	return tracedScheme{Scheme: s, p: p}
}

type tracedScheme struct {
	sig.Scheme
	p *probe
}

func (s tracedScheme) SignerFor(id ids.NodeID) sig.Signer {
	return tracedSigner{Signer: s.Scheme.SignerFor(id), p: s.p}
}

func (s tracedScheme) Verifier() sig.Verifier {
	return tracedVerifier{Verifier: s.Scheme.Verifier(), p: s.p}
}

type tracedSigner struct {
	sig.Signer
	p *probe
}

func (s tracedSigner) Sign(msg []byte) []byte {
	k := leafSign
	if s.p.in == leafEmit {
		k = leafSignInEmit
	}
	t0 := s.p.now()
	out := s.Signer.Sign(msg)
	s.p.record(k, t0)
	return out
}

type tracedVerifier struct {
	sig.Verifier
	p *probe
}

func (v tracedVerifier) Verify(signer ids.NodeID, msg, sg []byte) bool {
	k := leafVerify
	if v.p.in == leafDeliver {
		k = leafVerifyInDeliver
	}
	t0 := v.p.now()
	ok := v.Verifier.Verify(signer, msg, sg)
	v.p.record(k, t0)
	return ok
}

// proto wraps a node so that Emit and Deliver are timed. The wrapper
// forwards Quiescent when the node has it: hiding rounds.Quiescer would
// silently disable the engine's early exit and inflate active_rounds.
func (p *probe) proto(inner rounds.Protocol) rounds.Protocol {
	if p == nil {
		return inner
	}
	tp := &tracedProto{inner: inner, p: p}
	if q, ok := inner.(rounds.Quiescer); ok {
		return &tracedQuiescer{tracedProto: tp, q: q}
	}
	return tp
}

type tracedProto struct {
	inner rounds.Protocol
	p     *probe
}

func (t *tracedProto) Emit(round int) []rounds.Send {
	t.p.setRound(round)
	t.p.in = leafEmit
	t0 := t.p.now()
	out := t.inner.Emit(round)
	t.p.record(leafEmit, t0)
	t.p.in = leafNone
	return out
}

func (t *tracedProto) Deliver(round int, from ids.NodeID, data []byte) {
	t.p.in = leafDeliver
	t0 := t.p.now()
	t.inner.Deliver(round, from, data)
	t.p.record(leafDeliver, t0)
	t.p.in = leafNone
	t.p.sample.offer(data)
}

type tracedQuiescer struct {
	*tracedProto
	q rounds.Quiescer
}

func (t *tracedQuiescer) Quiescent() bool { return t.q.Quiescent() }

// msgSample keeps a uniform sample of the messages Deliver saw, copied
// out because the engine owns the bytes only for the call.
type msgSample struct {
	msgs    [][]byte
	seen    uint64
	rng     uint64
	n       int // system size, for the decoders
	sigSize int
}

const maxSample = 10000

func (s *msgSample) offer(data []byte) {
	if s == nil {
		return
	}
	s.seen++
	if len(s.msgs) < maxSample {
		s.msgs = append(s.msgs, append([]byte(nil), data...))
		return
	}
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	if j := (s.rng >> 33) % s.seen; j < maxSample {
		s.msgs[j] = append(s.msgs[j][:0], data...)
	}
}
