package rounds

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/nectar-repro/nectar/internal/freelist"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/topology"
)

// The staging free list promises capacity, never content (pool.go). These
// tests hand the engine staging whose every buffer is full of garbage
// beyond length zero — what a recycled staging would look like if release
// scrubbed nothing — and require runs identical to ones on fresh staging.

// withStagingPool swaps the package free list for an empty one whose every
// miss is served by fresh, and restores a clean one afterwards: the next
// acquire is certain to call fresh.
func withStagingPool(t *testing.T, fresh func() *staging) {
	t.Helper()
	stagingFree = freelist.New(fresh)
	t.Cleanup(func() { stagingFree = freelist.New(func() *staging { return new(staging) }) })
}

// poisonedStaging is a staging of awkward shape (sized for 5 nodes and 3
// workers) with garbage in every slot up to capacity, every buffer at
// length zero and every counter off zero.
func poisonedStaging() *staging {
	junk := bytes.Repeat([]byte{0xFF}, 64)
	st := new(staging)
	for i := 0; i < 5; i++ {
		sends := make([]Send, 4)
		for k := range sends {
			sends[k] = Send{To: []ids.NodeID{3, 1 << 30}, Skip: 2, Data: junk}
		}
		st.outboxes = append(st.outboxes, sends[:0])
	}
	st.outboxes = st.outboxes[:0]
	for w := 0; w < 3; w++ {
		inbox := make([]delivery, 9)
		for i := range inbox {
			inbox[i] = delivery{from: ids.NodeID(1 << 30), data: junk}
		}
		st.workers = append(st.workers, &worker{inbox: inbox[:0], at: []int{7, 7, 7}[:0], bytes: 5, nonEdge: 5, lost: 5})
	}
	return st
}

// transcript runs a flood over g and returns everything observable:
// metrics and each node's delivery sequence.
func transcript(t *testing.T, g *graph.Graph, cfg Config) (*Metrics, [][]string) {
	t.Helper()
	nodes, m := runFlood(t, g, cfg)
	got := make([][]string, len(nodes))
	for i, nd := range nodes {
		got[i] = nd.received
	}
	return m, got
}

func TestPoisonedStagingChangesNothing(t *testing.T) {
	harary, err := topology.Harary(4, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{topology.Ring(3), topology.Ring(9), harary} {
		for _, workers := range []int{1, 2, 3, 4, 7} {
			cfg := Config{Rounds: g.N(), Seed: 5, Workers: workers, LossRate: 0.1}
			name := fmt.Sprintf("n=%d/workers=%d", g.N(), workers)

			withStagingPool(t, func() *staging { return new(staging) })
			wantM, wantT := transcript(t, g, cfg)

			withStagingPool(t, poisonedStaging)
			gotM, gotT := transcript(t, g, cfg)
			if !reflect.DeepEqual(gotM, wantM) {
				t.Errorf("%s: metrics differ on poisoned staging:\n got %+v\nwant %+v", name, gotM, wantM)
			}
			if !reflect.DeepEqual(gotT, wantT) {
				t.Errorf("%s: delivery transcript differs on poisoned staging", name)
			}

			// And again on whatever the poisoned run gave back.
			againM, againT := transcript(t, g, cfg)
			if !reflect.DeepEqual(againM, wantM) || !reflect.DeepEqual(againT, wantT) {
				t.Errorf("%s: run on recycled staging differs", name)
			}
		}
	}
}

// TestReleaseScrubsStaging drives floods through a staging and checks what
// Run put back on the free list: nothing but capacity — no payload slice
// reachable from any slot, every buffer empty.
func TestReleaseScrubsStaging(t *testing.T) {
	for _, workers := range []int{1, 2} {
		var st *staging // the one staging the runs below borrow
		withStagingPool(t, func() *staging { st = new(staging); return st })
		for _, g := range []*graph.Graph{topology.Complete(6), topology.Ring(6)} {
			runFlood(t, g, Config{Rounds: 3, Seed: 1, Workers: workers})
			if st == nil || cap(st.outboxes) == 0 {
				t.Fatal("the run did not go through the free list")
			}
			checkScrubbed(t, st, workers)
		}
	}
}

// checkScrubbed fails the test unless st, as released by a run at the
// given worker count, holds nothing but capacity.
func checkScrubbed(t *testing.T, st *staging, workers int) {
	t.Helper()
	for i, box := range st.outboxes[:cap(st.outboxes)] {
		if box != nil {
			t.Fatalf("outboxes[%d]: still holds a batch", i)
		}
	}
	if len(st.workers) != workers || st.used != workers {
		t.Errorf("%d workers, %d used, for a %d-worker run", len(st.workers), st.used, workers)
	}
	used := 0 // which workers claimed a recipient is the scheduler's choice
	for w, wk := range st.workers {
		used += cap(wk.inbox)
		if len(wk.inbox) != 0 {
			t.Errorf("worker %d: inbox length %d after release", w, len(wk.inbox))
		}
		for _, d := range wk.inbox[:cap(wk.inbox)] {
			if d.data != nil || d.from != 0 {
				t.Fatalf("worker %d: inbox slot still holds %+v", w, d)
			}
		}
	}
	if used == 0 {
		t.Error("no worker pulled an inbox")
	}
}

// TestRepeatedRunsShareStaging: the stagings one wave of runs releases are
// the ones the next wave borrows, whatever the collector did and wherever
// the scheduler put the callers in between — a sync.Pool alone promises
// neither, and a miss re-grows a whole staging from nil. A wave of k
// concurrent runs can need k stagings, and no number of waves needs more.
func TestRepeatedRunsShareStaging(t *testing.T) {
	g := topology.Ring(6)
	for _, atOnce := range []int{1, 2, freelist.Slots} {
		var made atomic.Int32
		withStagingPool(t, func() *staging { made.Add(1); return new(staging) })
		for wave := 0; wave < 10; wave++ {
			done := make(chan error)
			for k := 0; k < atOnce; k++ {
				protos := make([]Protocol, g.N())
				for id := range protos {
					protos[id] = newFloodNode(ids.NodeID(id), g, "x")
				}
				go func() { // a fresh goroutine, on whichever P is free
					_, err := Run(Config{Graph: g, Rounds: 3, Seed: 1, Workers: 2}, protos)
					done <- err
				}()
			}
			for k := 0; k < atOnce; k++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			runtime.GC() // two collections empty a sync.Pool
		}
		if n := int(made.Load()); n < 1 || n > atOnce {
			t.Errorf("10 waves of %d runs built %d stagings, want 1..%d", atOnce, n, atOnce)
		}
	}
}

// failingNet is a Transport that runs node `remote` elsewhere and fails
// the exchange of round failAt; before that it carries nothing.
type failingNet struct {
	remote ids.NodeID
	failAt int
}

func (f failingNet) Remote(id ids.NodeID) bool { return id == f.remote }

func (f failingNet) Exchange(round int, _ []Envelope) ([]Envelope, error) {
	if round == f.failAt {
		return nil, errors.New("link down")
	}
	return nil, nil
}

// TestFailedRunLeavesNoTrace: a failed call cannot leave anything behind
// for the next run. A config error returns before the staging is
// acquired; a transport error returns mid-run, after the round's sends to
// the remote node were pulled and metered, and the release on the way out
// must scrub those too.
func TestFailedRunLeavesNoTrace(t *testing.T) {
	g := topology.Ring(6)
	cfg := Config{Rounds: 6, Seed: 3}
	wantM, wantT := transcript(t, g, cfg)

	acquired := 0
	withStagingPool(t, func() *staging { acquired++; return new(staging) })
	bad := []Config{
		{Rounds: 3},                          // no graph
		{Graph: topology.Ring(4), Rounds: 3}, // node count mismatch
		{Graph: g, Rounds: -1},
		{Graph: g, Rounds: 3, LossRate: 1},
		{Graph: g, Rounds: 3, Workers: -2},
	}
	for i, c := range bad {
		if _, err := Run(c, make([]Protocol, g.N())); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if acquired != 0 {
		t.Errorf("failed runs acquired staging %d times", acquired)
	}
	gotM, gotT := transcript(t, g, cfg)
	if !reflect.DeepEqual(gotM, wantM) || !reflect.DeepEqual(gotT, wantT) {
		t.Error("run after failed runs differs from the reference")
	}

	for _, workers := range []int{1, 2} {
		var st *staging
		withStagingPool(t, func() *staging { st = new(staging); return st })
		protos := make([]Protocol, g.N())
		for i := range protos {
			protos[i] = newFloodNode(ids.NodeID(i), g, fmt.Sprintf("origin-%d", i))
		}
		protos[5] = &silentNode{}
		net := failingNet{remote: 5, failAt: 2}
		if _, err := Run(Config{Graph: g, Rounds: 6, Seed: 3, Workers: workers, Transport: net}, protos); err == nil {
			t.Fatal("a failing transport did not fail the run")
		}
		checkScrubbed(t, st, workers)

		gotM, gotT := transcript(t, g, Config{Rounds: 6, Seed: 3, Workers: workers})
		if !reflect.DeepEqual(gotM, wantM) || !reflect.DeepEqual(gotT, wantT) {
			t.Errorf("workers=%d: run after a failed run differs from the reference", workers)
		}
	}
}
