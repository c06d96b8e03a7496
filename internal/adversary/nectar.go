package adversary

import (
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/nectar"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/sig"
)

// NECTAR-specific Byzantine behaviours (§IV "Impact of Byzantine
// deviations" and §V-D).

// NectarOmitOwn behaves like a correct NECTAR node but never announces the
// edges in hide in round 1 (it still relays other nodes' messages
// faithfully). This is the "Byzantine nodes cannot be compelled to share
// their own neighborhood" deviation: hidden Byzantine-Byzantine edges may
// push the perceived connectivity below t, turning NOT_PARTITIONABLE into
// a (safe) PARTITIONABLE.
func NectarOmitOwn(inner rounds.Protocol, sigSize int, hide map[graph.Edge]bool) rounds.Protocol {
	return &OutFilter{
		Inner: inner,
		Drop: func(round int, data []byte) bool {
			if round != 1 {
				return false
			}
			m, err := nectar.DecodeEdgeMsg(data, sigSize, int(^uint32(0)>>1))
			return err == nil && hide[m.Proof.Edge]
		},
	}
}

// NectarEquivocate announces each of its own edges to only half of its
// neighbors (those with even IDs), creating knowledge disparities that the
// relay phase of correct nodes must iron out.
func NectarEquivocate(inner rounds.Protocol) rounds.Protocol {
	return &OutFilter{
		Inner: inner,
		Keep: func(round int, to ids.NodeID) bool {
			return round != 1 || to%2 == 0
		},
	}
}

// NectarFakeEdges wraps a correct NECTAR node and additionally announces
// fictitious edges between the local node and each colluding partner in
// round 1. Both endpoints are Byzantine, so the proofs verify (§II allows
// forging proofs between Byzantine processes); correct nodes accept and
// propagate these non-existent edges.
type NectarFakeEdges struct {
	inner    rounds.Protocol
	self     sig.Signer
	partners []sig.Signer
	sigSize  int
	nbrs     []ids.NodeID
}

var _ rounds.Protocol = (*NectarFakeEdges)(nil)

// NewNectarFakeEdges builds the colluding announcer. partners are the
// signing capabilities of fellow Byzantine nodes (collusion); nbrs is the
// local neighborhood the announcements are sent to.
func NewNectarFakeEdges(inner rounds.Protocol, self sig.Signer, partners []sig.Signer, sigSize int, nbrs []ids.NodeID) *NectarFakeEdges {
	return &NectarFakeEdges{
		inner:    inner,
		self:     self,
		partners: partners,
		sigSize:  sigSize,
		nbrs:     append([]ids.NodeID(nil), nbrs...),
	}
}

// Emit implements rounds.Protocol.
func (a *NectarFakeEdges) Emit(round int) []rounds.Send {
	out := a.inner.Emit(round)
	if round != 1 {
		return out
	}
	for _, partner := range a.partners {
		if partner.ID() == a.self.ID() {
			continue
		}
		msg := nectar.ForgeEdgeMsg(a.self, partner)
		out = append(out, rounds.Send{To: a.nbrs, Data: msg.Encode(a.sigSize)})
	}
	return out
}

// Deliver implements rounds.Protocol.
func (a *NectarFakeEdges) Deliver(round int, from ids.NodeID, data []byte) {
	a.inner.Deliver(round, from, data)
}

// Quiescent implements rounds.Quiescer: the forged announcements ride on
// round 1 only, so quiescence reduces to the inner node's (a NECTAR node is
// never quiescent before its round-1 emission).
func (a *NectarFakeEdges) Quiescent() bool {
	q, ok := a.inner.(rounds.Quiescer)
	return ok && q.Quiescent()
}
