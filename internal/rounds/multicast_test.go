package rounds

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
)

// randomSender emits random outboxes that exercise every corner of a Send:
// its graph neighbor list shared by several Sends, lists of random IDs
// (itself, non-neighbors, IDs past n, repeats), Skips inside, before and
// past the list, and empty or shared payloads. Its traffic is a pure
// function of (seed, id, round), so a second sender with the same seed
// sends the same messages; expand makes that one single-recipient Send
// per message. Each delivery is recorded in order, and charge adds up
// what BytesBroadcast should read: one payload per Send with a channel.
type randomSender struct {
	id       ids.NodeID
	n        int
	seed     int64
	graphFor func(round int) *graph.Graph
	expand   bool
	got      []string
	charge   int64
}

func (s *randomSender) Emit(round int) []Send {
	rng := rand.New(rand.NewSource(s.seed ^ int64(s.id)<<20 ^ int64(round)<<40))
	g := s.graphFor(round)
	var out []Send
	var list []ids.NodeID
	var data []byte
	for range rng.Intn(5) {
		switch rng.Intn(3) {
		case 0:
			list = g.Neighbors(s.id)
		case 1:
			list = make([]ids.NodeID, rng.Intn(7))
			for p := range list {
				list[p] = ids.NodeID(rng.Intn(s.n + 2))
			}
		} // case 2: the last Send's list again
		if rng.Intn(3) > 0 {
			data = make([]byte, rng.Intn(6))
			rng.Read(data)
		}
		skip := rng.Intn(len(list)+4) - 1
		out = append(out, Send{To: list, Skip: skip, Data: data})
	}
	for _, m := range out {
		for _, to := range m.Recipients(nil) {
			if to != s.id && int(to) < s.n && g.HasEdge(s.id, to) {
				s.charge += int64(len(m.Data) + DefaultMsgOverhead)
				break
			}
		}
	}
	if !s.expand {
		return out
	}
	var one []Send
	for _, m := range out {
		for _, to := range m.Recipients(nil) {
			one = append(one, Send{To: []ids.NodeID{to}, Data: m.Data})
		}
	}
	return one
}

func (s *randomSender) Deliver(round int, from ids.NodeID, data []byte) {
	s.got = append(s.got, fmt.Sprintf("%d/%d/%x", round, from, data))
}

// multicastRun is what a run of random senders shows: its metrics, with
// per-node rows taken from the engine that runs the node when the run is
// split, and each node's delivery sequence and broadcast charge.
type multicastRun struct {
	m      *Metrics
	got    [][]string
	charge []int64
}

// runRandomSenders runs n random senders under cfg, split over parts
// engines joined by chanNet (node i on part i mod parts) when parts > 1.
func runRandomSenders(t *testing.T, n int, cfg Config, graphFor func(int) *graph.Graph, seed int64, expand bool, parts int) multicastRun {
	t.Helper()
	nodes := make([]*randomSender, n)
	for i := range nodes {
		nodes[i] = &randomSender{id: ids.NodeID(i), n: n, seed: seed, graphFor: graphFor, expand: expand}
	}
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
	ms := make([]*Metrics, parts)
	errs := make([]error, parts)
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		protos := make([]Protocol, n)
		for i := range protos {
			protos[i] = &silentNode{}
			if owner[i] == p {
				protos[i] = nodes[i]
			}
		}
		pcfg := cfg
		if parts > 1 {
			pcfg.Transport = &chanNet{part: p, owner: owner, links: links}
		}
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
	m := &Metrics{
		BytesSent:      make([]int64, n),
		BytesBroadcast: make([]int64, n),
		MsgsSent:       make([]int64, n),
		MsgsDelivered:  make([]int64, n),
		Rounds:         ms[0].Rounds,
		ActiveRounds:   ms[0].ActiveRounds,
	}
	for _, pm := range ms {
		m.DroppedNonEdge += pm.DroppedNonEdge
		m.DroppedLoss += pm.DroppedLoss
	}
	run := multicastRun{m: m}
	for i, nd := range nodes {
		pm := ms[owner[i]]
		m.BytesSent[i], m.BytesBroadcast[i] = pm.BytesSent[i], pm.BytesBroadcast[i]
		m.MsgsSent[i], m.MsgsDelivered[i] = pm.MsgsSent[i], pm.MsgsDelivered[i]
		run.got = append(run.got, nd.got)
		run.charge = append(run.charge, nd.charge)
	}
	return run
}

// TestMulticastIsItsExpansion: a run of multicast Sends delivers, meters
// and drops exactly what the same traffic sent one recipient per Send
// does — every per-recipient delivery sequence, every Metrics field but
// BytesBroadcast — on a static graph and under a TopologyProvider, with
// and without loss, at 1/2/3/7 workers, on one engine and split over
// two. BytesBroadcast, where a multicast is by definition one charge and
// its expansion many, must read one payload per Send with a channel.
func TestMulticastIsItsExpansion(t *testing.T) {
	const n, horizon = 11, 6
	gen := rand.New(rand.NewSource(7))
	randomGraph := func() *graph.Graph {
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if gen.Intn(3) == 0 {
					g.AddEdge(ids.NodeID(u), ids.NodeID(v))
				}
			}
		}
		return g
	}
	static := randomGraph()
	phased := &phasedTopology{phases: map[int]*graph.Graph{1: randomGraph(), 3: randomGraph(), 5: static}}
	for _, topo := range []struct {
		name     string
		cfg      Config
		graphFor func(int) *graph.Graph
	}{
		{"static", Config{Graph: static}, func(int) *graph.Graph { return static }},
		{"provider", Config{Topology: phased}, phased.GraphFor},
	} {
		for _, loss := range []float64{0, 0.3} {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := topo.cfg
				cfg.Rounds, cfg.Seed, cfg.LossRate, cfg.Workers = horizon, seed, loss, 1
				want := runRandomSenders(t, n, cfg, topo.graphFor, seed, true, 1)
				var msgs int64
				for _, c := range want.m.MsgsDelivered {
					msgs += c
				}
				if msgs == 0 || want.m.DroppedNonEdge == 0 || (loss > 0) != (want.m.DroppedLoss > 0) {
					t.Fatalf("%s: the traffic misses a case: %d delivered, %d non-edge, %d lost",
						topo.name, msgs, want.m.DroppedNonEdge, want.m.DroppedLoss)
				}
				for _, workers := range []int{1, 2, 3, 7} {
					for _, parts := range []int{1, 2} {
						name := fmt.Sprintf("%s/loss=%v/seed=%d/workers=%d/parts=%d", topo.name, loss, seed, workers, parts)
						cfg.Workers = workers
						got := runRandomSenders(t, n, cfg, topo.graphFor, seed, false, parts)
						if !reflect.DeepEqual(got.got, want.got) {
							t.Errorf("%s: delivery sequences differ from the expansion's", name)
						}
						gm, wm := *got.m, *want.m
						if gm.BytesBroadcast = got.charge; !reflect.DeepEqual(got.m.BytesBroadcast, got.charge) {
							t.Errorf("%s: BytesBroadcast %v, one payload per Send with a channel is %v", name, got.m.BytesBroadcast, got.charge)
						}
						wm.BytesBroadcast = got.charge
						if !reflect.DeepEqual(gm, wm) {
							t.Errorf("%s: metrics differ from the expansion's:\n got %+v\nwant %+v", name, gm, wm)
						}
					}
				}
			}
		}
	}
}
