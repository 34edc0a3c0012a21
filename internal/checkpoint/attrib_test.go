package checkpoint_test

import (
	"reflect"
	"testing"

	"snacknoc/internal/attrib"
	"snacknoc/internal/checkpoint"
)

// TestAttribCheckpointRoundTrip pins the tentpole's checkpoint
// contract: attribution counters are part of a snapshot's identity.
// Restoring rewinds every slab to its value at Take, and a replayed leg
// accumulates exactly the counters of the original — across every layer
// (routers, NIs, RCUs, CPM, L1 MSHR integrals, engine).
func TestAttribCheckpointRoundTrip(t *testing.T) {
	s := buildCoRun(t)
	rec := attrib.NewRecorder()
	s.plat.SetAttrib(rec)
	s.sys.SetAttrib(rec)

	s.eng.Run(4096)
	st := checkpoint.Take(s.target())
	atTake := rec.Fold()

	s.eng.Run(4096)
	firstLeg := rec.Fold()
	if reflect.DeepEqual(firstLeg, atTake) {
		t.Fatal("second leg accumulated nothing; the round trip would be vacuous")
	}

	st.Restore()
	if got := rec.Fold(); !reflect.DeepEqual(got, atTake) {
		t.Fatal("restore did not rewind attribution counters")
	}

	s.eng.Run(4096)
	if got := rec.Fold(); !reflect.DeepEqual(got, firstLeg) {
		t.Fatal("replayed leg diverged from the original counters")
	}
}
