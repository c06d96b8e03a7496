package dynamic

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/nectar-repro/nectar/internal/exp"
	"github.com/nectar-repro/nectar/internal/graph"
	"github.com/nectar-repro/nectar/internal/ids"
	"github.com/nectar-repro/nectar/internal/obs"
	"github.com/nectar-repro/nectar/internal/rounds"
	"github.com/nectar-repro/nectar/internal/topology"
)

// The epoch window's contract (DESIGN.md §7), checked from the outside
// with a scripted BuildFn: build and Finish run on the caller's goroutine
// in epoch order, Finish(e) only once epoch e's engine has stopped, at
// most SplitBudget's window of stacks built and not yet finished, and no
// engine left stepping when Run returns — error or not.

// script is a BuildFn that logs what Run does with it. Its protocols are
// never quiescent and send to every neighbour every round, so an epoch
// whose engine ran to the end made exactly rounds·n Emit and rounds·2m
// Deliver calls: a count short of that at Finish, or when Run returns,
// is an engine still stepping.
type script struct {
	g       *graph.Graph
	rounds  int
	failAt  int  // the epoch that goes wrong (-1 = none) ...
	badSize bool // ... by a stack one protocol short (else build fails)

	// Written by build and Finish only — the caller's goroutine, by
	// contract; the race detector objects if Run breaks it.
	builds   []int // epochs, in call order
	finishes []int
	alive    int // stacks built and not yet finished
	maxAlive int
	early    []int // epochs finished before their engine had stopped

	steps []atomic.Int64 // per epoch: Emit + Deliver calls so far
}

func newScript(g *graph.Graph, rounds, epochs int) *script {
	return &script{g: g, rounds: rounds, failAt: -1, steps: make([]atomic.Int64, epochs)}
}

// fullRun is the number of protocol calls of one complete epoch.
func (s *script) fullRun() int64 {
	return int64(s.rounds * (s.g.N() + 2*s.g.M()))
}

type chatty struct {
	steps *atomic.Int64
	out   []rounds.Send
}

func (c *chatty) Emit(int) []rounds.Send          { c.steps.Add(1); return c.out }
func (c *chatty) Deliver(int, ids.NodeID, []byte) { c.steps.Add(1) }

var errScripted = errors.New("scripted build failure")

func (s *script) build(epoch int, g *graph.Graph, _ ids.Set, _ int64) (*Stack, error) {
	s.builds = append(s.builds, epoch)
	if epoch == s.failAt && !s.badSize {
		return nil, errScripted
	}
	s.alive++
	s.maxAlive = max(s.maxAlive, s.alive)
	protos := make([]rounds.Protocol, g.N())
	for i := range protos {
		c := &chatty{steps: &s.steps[epoch]}
		c.out = append(c.out, rounds.Send{To: g.Neighbors(ids.NodeID(i)), Data: []byte{byte(epoch)}})
		protos[i] = c
	}
	if epoch == s.failAt {
		protos = protos[1:]
	}
	return &Stack{Protos: protos, Finish: func() map[ids.NodeID]Verdict {
		s.finishes = append(s.finishes, epoch)
		s.alive--
		if s.steps[epoch].Load() != s.fullRun() {
			s.early = append(s.early, epoch)
		}
		return map[ids.NodeID]Verdict{0: {Key: fmt.Sprint(epoch)}}
	}}, nil
}

func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestDynamicWorkersWindowContract(t *testing.T) {
	const epochs, epochRounds = 10, 4
	g := topology.Ring(6)
	var want *Result
	for _, traced := range []bool{false, true} {
		for _, budget := range []int{1, 2, 3, 8, 64} {
			name := fmt.Sprintf("budget=%d/traced=%v", budget, traced)
			s := newScript(g, epochRounds, epochs)
			cfg := Config{Schedule: Static(g), T: 1, Seed: 1, Epochs: epochs, EpochRounds: epochRounds, Workers: budget}
			window, _ := exp.SplitBudget(budget, epochs)
			if traced {
				cfg.Tracer = obs.NewRecorder(nil)
				window = 1
			}
			res, err := Run(cfg, s.build)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(s.builds, upTo(epochs)) {
				t.Errorf("%s: build order %v", name, s.builds)
			}
			if !reflect.DeepEqual(s.finishes, upTo(epochs)) {
				t.Errorf("%s: Finish order %v", name, s.finishes)
			}
			if len(s.early) > 0 {
				t.Errorf("%s: epochs %v finished while their engine was still running", name, s.early)
			}
			// The window is a bound and is used: the loop builds ahead
			// until it is full before it waits for anything.
			if s.maxAlive != window {
				t.Errorf("%s: up to %d stacks built and unfinished, want the window of %d", name, s.maxAlive, window)
			}
			if want == nil {
				want = res
			} else if !reflect.DeepEqual(res, want) {
				t.Errorf("%s: result differs from budget 1", name)
			}
		}
	}
}

// TestWindowErrorsLeaveNothingRunning: an epoch that fails — in build, or
// in the engine's own validation — fails the run with its own number on
// the error, after every older epoch was finished in order and every
// younger one that had been launched was waited for and dropped.
func TestWindowErrorsLeaveNothingRunning(t *testing.T) {
	const epochs, epochRounds, failAt = 8, 4, 3
	g := topology.Ring(6)
	for _, badSize := range []bool{false, true} {
		for _, budget := range []int{1, 2, 8} {
			name := fmt.Sprintf("badSize=%v/budget=%d", badSize, budget)
			s := newScript(g, epochRounds, epochs)
			s.failAt, s.badSize = failAt, badSize
			res, err := Run(Config{Schedule: Static(g), T: 1, Seed: 1, Epochs: epochs, EpochRounds: epochRounds, Workers: budget}, s.build)
			// Whatever the engines had done by the time Run came back is
			// all they may ever do.
			atReturn := make([]int64, epochs)
			for e := range atReturn {
				atReturn[e] = s.steps[e].Load()
			}
			if err == nil || res != nil {
				t.Fatalf("%s: Run returned (%v, %v), want an error", name, res, err)
			}
			if !strings.Contains(err.Error(), fmt.Sprint("epoch ", failAt)) {
				t.Errorf("%s: error %q does not name epoch %d", name, err, failAt)
			}
			if !badSize && !errors.Is(err, errScripted) {
				t.Errorf("%s: error %q does not wrap the build's", name, err)
			}
			if !reflect.DeepEqual(s.finishes, upTo(failAt)) {
				t.Errorf("%s: Finish order %v, want exactly the epochs before %d", name, s.finishes, failAt)
			}
			if len(s.early) > 0 {
				t.Errorf("%s: epochs %v finished while their engine was still running", name, s.early)
			}
			if !reflect.DeepEqual(s.builds, upTo(len(s.builds))) || len(s.builds) <= failAt {
				t.Errorf("%s: build order %v", name, s.builds)
			}
			// Every launched engine ran to its end before Run returned (the
			// failing epoch's never started stepping): none can still be
			// at it now.
			for _, e := range s.builds {
				want := s.fullRun()
				if e == failAt {
					want = 0
				}
				if atReturn[e] != want {
					t.Errorf("%s: epoch %d had made %d of %d protocol calls when Run returned", name, e, atReturn[e], want)
				}
			}
		}
	}
}

// TestCursorWindowsMatchWindowAt: the windows Run cuts from its one cursor
// — all of them cut first, so the cursor is past every epoch before any
// window is read — show, at every local round, the graph, the absent set
// and the next change a fresh WindowAt replaying the schedule from round 0
// shows: on a long flapping schedule, on node churn, and on squads that
// close in and part again, whose graphs gain edges the base never had.
func TestCursorWindowsMatchWindowAt(t *testing.T) {
	const epochs, epochRounds = 40, 7
	base, err := topology.Harary(4, 20)
	if err != nil {
		t.Fatal(err)
	}
	flap, err := Flapping(base, 0.1, 0.3, epochs*epochRounds, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	churn, err := PoissonChurn(base, 0.05, 4, epochs*epochRounds, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	mobility, err := DroneMobility(MobilityConfig{
		N: 20, Radius: 1.8, StepRounds: epochRounds, Steps: epochs, Jitter: 0.1,
		Distance: func(step int) float64 { return math.Abs(4 - 0.25*float64(step)) },
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*EdgeSchedule{"flapping": flap, "churn": churn, "mobility": mobility} {
		if len(s.Events) < epochs {
			t.Fatalf("%s: fixture broken, %d events", name, len(s.Events))
		}
		cursor, err := NewPlayer(s)
		if err != nil {
			t.Fatal(err)
		}
		windows := make([]*Window, epochs)
		for e := range windows {
			windows[e] = cursor.window(e * epochRounds)
		}
		for e, w := range windows {
			fresh, err := WindowAt(s, e*epochRounds)
			if err != nil {
				t.Fatal(err)
			}
			for r := 1; r <= epochRounds; r++ {
				if !w.GraphFor(r).Equal(fresh.GraphFor(r)) || !reflect.DeepEqual(w.p.Absent().Sorted(), fresh.p.Absent().Sorted()) {
					t.Fatalf("%s: epoch %d, round %d: the cursor's window differs from WindowAt's", name, e, r)
				}
				if a, b := w.NextChange(r), fresh.NextChange(r); a != b {
					t.Fatalf("%s: epoch %d, round %d: next change %d, WindowAt says %d", name, e, r, a, b)
				}
			}
		}
	}
}
