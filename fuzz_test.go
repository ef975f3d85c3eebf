// Native fuzz targets for every format the CLIs read from user input:
// workload specs (YAML and JSON), arrival traces, fleet event
// schedules, autoscale rules, machine-mix strings and checkpoint files.
// The contract under fuzzing is uniform — a parser either succeeds or
// returns an error; it never panics — and successful parses must
// satisfy the format's own invariants (a reparse of a successful parse
// cannot fail; parsed numbers are finite). Seed corpora come from the
// shipped example specs, the flag syntax the documentation advertises
// and a small real checkpoint.
//
// CI runs these with a short -fuzztime as a smoke test; run them longer
// locally with e.g.:
//
//	go test -fuzz=FuzzParseWorkloadSpec -fuzztime=60s .
package lfoc_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	lfoc "github.com/faircache/lfoc"
	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/harness"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/workloads"
)

func FuzzParseWorkloadSpec(f *testing.F) {
	for _, name := range []string{
		"bursty-batch.yaml", "diurnal-bursty.yaml", "diurnal-web.yaml", "failure-under-load.yaml",
	} {
		data, err := os.ReadFile(filepath.Join("examples", "specs", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, true)
	}
	f.Add([]byte(`{"spec_version":1,"name":"j","seed":1,"duration_seconds":1,"cohorts":[]}`), false)
	f.Fuzz(func(t *testing.T, data []byte, yaml bool) {
		ext := ".json"
		if yaml {
			ext = ".yaml"
		}
		spec, err := lfoc.ParseWorkloadSpec(data, ext)
		if err != nil {
			return
		}
		if spec == nil {
			t.Fatal("nil spec with nil error")
		}
	})
}

func FuzzReadArrivalTrace(f *testing.F) {
	f.Add([]byte("lfoc-trace v1\nname seeded\nscale 50\narrivals 1\n0.5 lbm06 1\n"))
	f.Add([]byte("lfoc-trace v1\n# comment\nname x\nscale 1\narrivals 0\n"))
	f.Add([]byte("lfoc-trace v2\nname future\nscale 1\narrivals 0\n"))
	f.Add([]byte("not a trace"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := workloads.ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successful parse must round-trip through the writer and
		// reparse — the format's own invariant.
		var buf bytes.Buffer
		if err := workloads.WriteTrace(&buf, tr); err != nil {
			t.Fatalf("reserialize accepted trace: %v", err)
		}
		if _, err := workloads.ReadTrace(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("reparse written trace: %v", err)
		}
	})
}

func FuzzParseFleetEvents(f *testing.F) {
	f.Add("drain:t=5,m=1;fail:t=7,m=0;join:t=9")
	f.Add("join:t=0.5")
	f.Add("fail:t=1.5,m=2")
	f.Add("")
	f.Add("drain:t=;fail")
	f.Add("drain:t=NaN,m=1")
	f.Fuzz(func(t *testing.T, s string) {
		evs, err := lfoc.ParseFleetEvents(s)
		if err != nil {
			return
		}
		for _, ev := range evs {
			if !(ev.Time >= 0) || math.IsInf(ev.Time, 1) {
				t.Fatalf("accepted event with a time that is not finite and nonnegative: %+v", ev)
			}
		}
	})
}

func FuzzParseAutoscale(f *testing.F) {
	f.Add("i=0.5,up=0.9,down=0.1")
	f.Add("interval=1,min=2,max=6")
	f.Add("")
	f.Add("i=,up")
	f.Add("i=NaN")
	f.Fuzz(func(t *testing.T, s string) {
		as, err := cluster.ParseAutoscale(s)
		if err != nil || as == nil {
			return
		}
		for _, v := range []float64{as.Interval, as.Up, as.Down} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted a rule with a non-finite value: %+v", *as)
			}
		}
	})
}

func FuzzParseMachineMix(f *testing.F) {
	f.Add("2x11way,2x7way")
	f.Add("1x4way2c")
	f.Add("3x20way16c,1x11way")
	f.Add("")
	f.Add("0x0way")
	f.Fuzz(func(t *testing.T, s string) {
		base := harness.DefaultConfig().SimConfig()
		fleet, err := lfoc.ParseMachineMix(s, base)
		if err != nil {
			return
		}
		for i, mc := range fleet {
			if mc.Plat == nil || mc.Plat.Ways <= 0 || mc.Plat.Cores <= 0 {
				t.Fatalf("accepted machine %d with invalid platform", i)
			}
		}
	})
}

// FuzzReadCheckpoint fuzzes the checkpoint payload. Each input is laid
// out under a header carrying its correct checksum, so the fuzzer
// reaches the payload decoder (packed series included) instead of
// stopping at the checksum. Every rejection must be typed.
func FuzzReadCheckpoint(f *testing.F) {
	hc := harness.DefaultConfig()
	s1, err := workloads.Get("S1")
	if err != nil {
		f.Fatal(err)
	}
	scn, err := s1.OpenScenario(8, 2, 7, hc.Scale)
	if err != nil {
		f.Fatal(err)
	}
	mc := hc.SimConfig()
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	if _, err := cluster.Run(cluster.Config{
		Sim: mc, Machines: 2, Placement: cluster.NewRoundRobin(),
		Lifecycle:  &cluster.Lifecycle{Events: []cluster.Event{{Time: 0.4, Kind: cluster.MachineDrain, Machine: 1}}},
		StopAfter:  0.6,
		Checkpoint: &cluster.CheckpointConfig{Path: path},
	}, scn, func(int) (sim.Dynamic, error) { return policy.NewStockDynamic(mc.Plat.Ways), nil }); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	_, payload, _ := bytes.Cut(data, []byte("\n"))
	f.Add(bytes.TrimSuffix(payload, []byte("\n")))
	f.Add([]byte(`{"placed":[0],"machines":[{"series":{"width":0.01,"points":"AAAA"}}]}`))
	f.Add([]byte(`{"next_arrival":-1}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		sum := sha256.Sum256(payload)
		file := fmt.Appendf(nil, "{\"magic\":\"lfoc-checkpoint\",\"version\":%d,\"sha256\":\"%x\"}\n%s\n",
			cluster.CheckpointVersion, sum, payload)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := cluster.ReadCheckpoint(path)
		var ferr *cluster.CheckpointFormatError
		var cerr *cluster.CheckpointChecksumError
		switch {
		case err == nil && ck.NextArrival() < 0:
			t.Fatalf("accepted checkpoint at arrival %d", ck.NextArrival())
		case err != nil && !errors.As(err, &ferr) && !errors.As(err, &cerr):
			t.Fatalf("untyped error %T: %v", err, err)
		}
	})
}
