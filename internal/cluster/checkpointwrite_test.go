package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/faircache/lfoc/internal/metrics"
	"github.com/faircache/lfoc/internal/profiles"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

// The streamed checkpoint write produces exactly the file the
// whole-payload encoding did: the header with the payload's sha256,
// the bytes of json.NewEncoder(w).Encode(payload), HTML escaping
// included, and its newline. The stream writes Machines and Lifecycle
// after the rest of the payload, so they must stay its last two fields.
func TestStreamedCheckpointMatchesEncode(t *testing.T) {
	typ := reflect.TypeOf(checkpointPayload{})
	if n := typ.NumField(); typ.Field(n-2).Name != "Machines" || typ.Field(n-1).Name != "Lifecycle" {
		t.Fatalf("checkpointPayload ends with %s, %s; encodePayload streams Machines, Lifecycle last",
			typ.Field(n-2).Name, typ.Field(n-1).Name)
	}
	series := metrics.WindowedSeries{Width: 0.1}
	series.Add(metrics.WindowPoint{Start: 0, End: 0.1, Unfairness: 1})
	series.Add(metrics.WindowPoint{Start: 0.1, End: 0.2, Active: 1, Samples: 1, STP: 0.5,
		Unfairness: 1, MeanSlowdown: 2, MinSlowdown: 2, MaxSlowdown: 2})
	spec := profiles.MustGet("lbm06")
	full := checkpointPayload{
		Scenario:       "mix <a&b>",
		Placement:      "fair",
		NextArrival:    3,
		Placed:         []int{2, 1},
		Assignments:    []int{0, 1, 0},
		PlacementState: json.RawMessage(`{"next": 1, "tag": "<&>"}`),
		Machines: []*sim.MachineSnapshot{
			{Name: "m0 <&>", SimTime: 0.25, Series: series.Pack(), Policy: json.RawMessage(`{"plan":[1,2],"tag":"<&>"}`)},
			{Name: "m1", Halted: true, Drained: true, WaitQ: []scenario.Arrival{{Time: 0.5, Spec: spec, Tag: 7}}},
		},
		Lifecycle: &engineSnapshot{
			Up: []bool{true, false}, JoinedAt: []float64{0, 0}, DownAt: []float64{-1, 1.5}, FailedAt: []bool{false, true},
			Parked:   []parkedArrival{{Arrival: scenario.Arrival{Time: 1, Spec: spec}, TraceIdx: 2}},
			LastSync: 1.5, Seq: 4, StaticFired: 1, VictimCount: 2,
			Retries: []retrySnapshot{{Time: 2, Seq: 3, Spec: spec, Attempts: 1, Delay: 0.5}},
			Sum:     LifecycleSummary{Events: 2, Failures: 1},
			Trk:     trackerSnapshot{Width: 0.1, Up: 1, Fleet: 2},
		},
	}
	free := full
	free.Lifecycle = nil
	for _, tc := range []struct {
		name string
		p    *checkpointPayload
	}{{"lifecycle", &full}, {"lifecycle-free", &free}} {
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(tc.p); err != nil {
			t.Fatal(err)
		}
		want := append(checkpointHeaderLine(sha256.Sum256(bytes.TrimSuffix(enc.Bytes(), []byte{'\n'}))), enc.Bytes()...)
		path := filepath.Join(t.TempDir(), "c.ckpt")
		if err := writeCheckpointPayload(path, tc.p); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: streamed checkpoint differs from the whole encoding:\n got %s\nwant %s", tc.name, got, want)
		}
	}
}
