package rounds

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
)

// chanNet is an in-memory Transport joining engines on goroutines: part p
// runs the nodes with owner[i] == p, and links[p][q] carries each round's
// sends from part p's nodes to part q's. Every part posts one batch to every
// other part per round and reads one from each, so the channels stay in
// round order without a barrier.
type chanNet struct {
	part  int
	owner []int
	links [][]chan []Envelope
}

func (c *chanNet) Remote(id ids.NodeID) bool { return c.owner[id] != c.part }

func (c *chanNet) Exchange(_ int, out []Envelope) ([]Envelope, error) {
	batches := make([][]Envelope, len(c.links))
	for _, env := range out {
		// The sending engine reuses out and its nodes' buffers next round,
		// possibly before the receiver has read this batch.
		env.Data = bytes.Clone(env.Data)
		batches[c.owner[env.To]] = append(batches[c.owner[env.To]], env)
	}
	for q, link := range c.links[c.part] {
		if q != c.part {
			link <- batches[q]
		}
	}
	var in []Envelope
	for q := range c.links {
		if q != c.part {
			in = append(in, <-c.links[q][c.part]...)
		}
	}
	return in, nil
}

// splitDigest runs the recorded flood of deliveryDigest split across parts
// engines, node i on part i mod parts (so every inbox interleaves local and
// remote senders), and returns the digest and each node's metric row taken
// from the engine that runs it.
func splitDigest(t *testing.T, g *graph.Graph, cfg Config, parts int) (string, *Metrics) {
	t.Helper()
	n := g.N()
	owner := make([]int, n)
	for i := range owner {
		owner[i] = i % parts
	}
	links := make([][]chan []Envelope, parts)
	for p := range links {
		links[p] = make([]chan []Envelope, parts)
		for q := range links[p] {
			links[p][q] = make(chan []Envelope, 1)
		}
	}
	nodes := recordingNodes(g)
	placeholders := make([]*silentNode, n)
	ms := make([]*Metrics, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		protos := make([]Protocol, n)
		for i := range protos {
			if owner[i] == p {
				protos[i] = nodes[i]
			} else {
				placeholders[i] = &silentNode{}
				protos[i] = placeholders[i]
			}
		}
		pcfg := cfg
		pcfg.Graph = g
		pcfg.Transport = &chanNet{part: p, owner: owner, links: links}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms[p], errs[p] = Run(pcfg, protos)
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("part %d: %v", p, err)
		}
	}
	for i, ph := range placeholders {
		if ph != nil && ph.got != 0 {
			t.Fatalf("placeholder for node %d received %d messages", i, ph.got)
		}
	}
	rows := &Metrics{
		BytesSent:      make([]int64, n),
		BytesBroadcast: make([]int64, n),
		MsgsSent:       make([]int64, n),
		MsgsDelivered:  make([]int64, n),
	}
	for i := range owner {
		m := ms[owner[i]]
		rows.BytesSent[i] = m.BytesSent[i]
		rows.BytesBroadcast[i] = m.BytesBroadcast[i]
		rows.MsgsSent[i] = m.MsgsSent[i]
		rows.MsgsDelivered[i] = m.MsgsDelivered[i]
	}
	return digestOf(nodes), rows
}

// TestSplitEngineMatchesOneEngine is the transport seam without sockets:
// the pinned floods split across two and three engines joined by chanNet
// deliver exactly the pinned sequences, and every node's traffic row
// equals the one-engine run's.
func TestSplitEngineMatchesOneEngine(t *testing.T) {
	for _, tc := range pinnedOrderCases(t) {
		cfg := Config{Rounds: tc.rounds, Seed: tc.seed, LossRate: tc.loss}
		_, one := deliveryDigest(t, tc.g, cfg)
		for _, parts := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/parts=%d", tc.name, parts), func(t *testing.T) {
				got, rows := splitDigest(t, tc.g, cfg, parts)
				if got != tc.want {
					t.Errorf("delivery digest %s, want %s", got, tc.want)
				}
				for _, row := range []struct {
					name       string
					split, one []int64
				}{
					{"BytesSent", rows.BytesSent, one.BytesSent},
					{"BytesBroadcast", rows.BytesBroadcast, one.BytesBroadcast},
					{"MsgsSent", rows.MsgsSent, one.MsgsSent},
					{"MsgsDelivered", rows.MsgsDelivered, one.MsgsDelivered},
				} {
					if !reflect.DeepEqual(row.split, row.one) {
						t.Errorf("%s split %v, one engine %v", row.name, row.split, row.one)
					}
				}
			})
		}
	}
}
