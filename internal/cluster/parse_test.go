package cluster_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/faircache/lfoc/internal/cluster"
)

func TestParseEvents(t *testing.T) {
	evs, err := cluster.ParseEvents(" drain:t=5,m=1; fail:t=7,m=0 ;join:t=9;")
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.Event{
		{Time: 5, Kind: cluster.MachineDrain, Machine: 1},
		{Time: 7, Kind: cluster.MachineFail, Machine: 0},
		{Time: 9, Kind: cluster.MachineJoin},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("parsed %+v, want %+v", evs, want)
	}
	// The JSON form is the "events" echo of lfoc-sim's cluster and grid
	// results.
	data, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	if got := `[{"t":5,"kind":"drain","machine":1},{"t":7,"kind":"fail"},{"t":9,"kind":"join"}]`; string(data) != got {
		t.Errorf("JSON %s, want %s", data, got)
	}
	if evs, err := cluster.ParseEvents("  "); err != nil || evs != nil {
		t.Errorf("blank schedule: %v, %v", evs, err)
	}
	for _, bad := range []string{
		"crash:t=1,m=0", "drain:t=1", "drain:m=1", "join:t=1,m=2", "drain:t=1,m=-1",
		"drain:t=-1,m=1", "drain:t=NaN,m=1", "fail:t=Inf,m=0", "drain:t=1,m=1,x=2", "drain:t",
	} {
		if evs, err := cluster.ParseEvents(bad); err == nil {
			t.Errorf("%q accepted as %+v", bad, evs)
		}
	}
}

func TestParseAutoscale(t *testing.T) {
	as, err := cluster.ParseAutoscale("i=0.5,up=0.9, down=0.2,min=2,max=6")
	if err != nil {
		t.Fatal(err)
	}
	if want := (cluster.Autoscale{Interval: 0.5, Up: 0.9, Down: 0.2, Min: 2, Max: 6}); *as != want {
		t.Errorf("parsed %+v, want %+v", *as, want)
	}
	as, err = cluster.ParseAutoscale("interval=1")
	if err != nil {
		t.Fatal(err)
	}
	if want := (cluster.Autoscale{Interval: 1, Up: 1, Down: 0.1, Min: 1}); *as != want {
		t.Errorf("defaults %+v, want %+v", *as, want)
	}
	if as, err := cluster.ParseAutoscale(""); err != nil || as != nil {
		t.Errorf("empty rule: %v, %v", as, err)
	}
	for _, bad := range []string{"i=NaN", "i=1,up=Inf", "i=1,down=-Inf", "i=1,min=x", "i=1,step=2", "i"} {
		if as, err := cluster.ParseAutoscale(bad); err == nil {
			t.Errorf("%q accepted as %+v", bad, *as)
		}
	}
}
