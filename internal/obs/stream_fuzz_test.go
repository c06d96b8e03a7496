package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadJSONL: ReadJSONL is the load half of the offline trace tools and
// reads whatever file it is pointed at. On any bytes it returns events or an
// error, never panics; and whatever it accepts, written back out by
// Recorder.WriteJSONL, reads back as the same events — so a loaded trace
// can be filtered and saved again without changing what it says.
func FuzzReadJSONL(f *testing.F) {
	r := NewRecorder(nil)
	r.Emit(Event{Type: EvRoundStart, Round: 1})
	r.Emit(Event{Type: EvChainAccept, Round: 2, Node: 3, N: 4, Attrs: []Attr{{K: "u", V: 1}, {K: "v", V: 2}}})
	r.Emit(Event{Type: EvKappaEval, Epoch: 1, Node: 5, Key: "PARTITIONABLE", N: -7})
	var seed bytes.Buffer
	if err := r.WriteJSONL(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("\n\r\n{}\n"))
	f.Add([]byte(`{"type":"x","attrs":[]}`))
	f.Add([]byte(`{"TYPE":"<&>","key":"\ud800","attrs":[{}]}` + "\n" + `{"ts":`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		rec := NewRecorder(nil)
		rec.events = events
		var out bytes.Buffer
		if err := rec.WriteJSONL(&out); err != nil {
			t.Fatalf("accepted events do not encode: %v", err)
		}
		again, err := ReadJSONL(&out)
		if err != nil {
			t.Fatalf("the re-encoded stream is rejected: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("a round trip changed the events:\nread    %#v\nre-read %#v", events, again)
		}
	})
}
