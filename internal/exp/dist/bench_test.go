package dist

import (
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/nectar-repro/nectar/internal/exp"
)

// The dist benchmarks compare a serial local run against coordinator +
// worker fleets over real TCP loopback sessions, on a plan of
// fixed-latency trial units (2ms each). Units hold their slot without
// occupying a core — the stand-in, on a single shared machine, for a
// real fleet where every worker brings its own CPUs. What the fleet
// numbers measure is therefore the coordinator's scheduling overlap
// (how many units it keeps in flight) plus the protocol's per-unit
// dispatch overhead, not core contention on the bench host.

// benchRunner mirrors fakeRunner with a fixed per-unit latency.
type benchRunner struct {
	name  string
	seed  int64
	units int
}

func (r *benchRunner) Fingerprint() string  { return fmt.Sprintf("bench|%s|%d", r.name, r.seed) }
func (r *benchRunner) Units() int           { return r.units }
func (r *benchRunner) UnitSeed(i int) int64 { return r.seed + int64(i)*0x9E3779B9 }
func (r *benchRunner) Run(i, engineWorkers int) (any, error) {
	time.Sleep(benchUnitLatency)
	s := r.UnitSeed(i)
	return fakeRecord{Seed: s, Value: float64(s%1000) / 7}, nil
}
func (r *benchRunner) Decode(data json.RawMessage) (any, error) {
	var rec fakeRecord
	err := json.Unmarshal(data, &rec)
	return rec, err
}
func (r *benchRunner) Finalize(records []any) (any, error) {
	var sum float64
	for i, rec := range records {
		sum += float64(i+1) * rec.(fakeRecord).Value
	}
	return sum, nil
}

const benchUnitLatency = 2 * time.Millisecond

func benchBuild(blob []byte) (*exp.Plan, error) {
	var specs []planSpec
	if err := json.Unmarshal(blob, &specs); err != nil {
		return nil, err
	}
	p := &exp.Plan{}
	for _, s := range specs {
		if err := p.Add(s.Name, &benchRunner{name: s.Name, seed: s.Seed, units: s.Units}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// benchBlob is the shared sweep: 3 specs × 20 units, the shape of a
// quick mixed plan.
func benchBlob(b *testing.B) []byte {
	blob, err := json.Marshal([]planSpec{{"a", 11, 20}, {"b", 22, 20}, {"c", 33, 20}})
	if err != nil {
		b.Fatal(err)
	}
	return blob
}

// BenchmarkDistLocalSerial is the -jobs 1 reference the fleet numbers
// are read against.
func BenchmarkDistLocalSerial(b *testing.B) {
	blob := benchBlob(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := benchBuild(blob)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exp.Execute(plan, exp.Options{Jobs: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistFleet runs the same sweep through a coordinator and
// 2/3 loopback workers (jobs=2 each); each iteration is a full session
// including handshake.
func BenchmarkDistFleet(b *testing.B) {
	for _, workers := range []int{2, 3} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			blob := benchBlob(b)
			var addrs []string
			for i := 0; i < workers; i++ {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer ln.Close()
				go func() { _ = Serve(ln, benchBuild, WorkerConfig{Jobs: 2}) }()
				addrs = append(addrs, ln.Addr().String())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := benchBuild(blob)
				if err != nil {
					b.Fatal(err)
				}
				coord := &Coordinator{Workers: addrs, Blob: blob}
				if _, err := exp.Execute(plan, exp.Options{Backend: coord}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
