package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/faircache/lfoc/internal/cluster"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/plan"
	"github.com/faircache/lfoc/internal/pmc"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

func ckptScn(t *testing.T) *scenario.Open {
	t.Helper()
	scn, err := scenario.NewPoisson("ckpt", pool("xalancbmk06", "lbm06", "povray06", "libquantum06"), 8, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// The headline guarantee, cluster level: interrupt a run at T with a
// checkpoint, resume from the file, and the final Result is
// reflect.DeepEqual to the uninterrupted run's — across worker counts,
// placement policies and partitioning policies.
func TestCheckpointResumeDeepEqual(t *testing.T) {
	plat := machine.Small(8, 4)
	cases := []struct {
		name      string
		placement func() cluster.Policy
		factory   func(int) (sim.Dynamic, error)
	}{
		{"roundrobin-stock", func() cluster.Policy { return cluster.NewRoundRobin() }, stockFactory(plat)},
		{"leastloaded-lfoc", func() cluster.Policy { return cluster.NewLeastLoaded() }, lfocFactory(plat)},
		{"fair-stock", func() cluster.Policy { return cluster.NewFairnessAware(plat) }, stockFactory(plat)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := func(workers int) cluster.Config {
				return cluster.Config{
					Sim: clusterSimConfig(plat), Machines: 3,
					Placement: tc.placement(), Workers: workers,
					RecordAssignments: true,
				}
			}
			full, err := cluster.Run(base(1), ckptScn(t), tc.factory)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "run.ckpt")
			partialCfg := base(4)
			partialCfg.StopAfter = 1.5
			partialCfg.Checkpoint = &cluster.CheckpointConfig{Path: path, Every: 0.5}
			partial, err := cluster.Run(partialCfg, ckptScn(t), tc.factory)
			if err != nil {
				t.Fatal(err)
			}
			if !partial.Interrupted {
				t.Fatal("stopped run not marked interrupted")
			}

			ck, err := cluster.ReadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if na := ck.NextArrival(); na <= 0 || na >= len(full.Assignments) {
				t.Fatalf("checkpoint at arrival %d, want a genuine midpoint of the %d-arrival trace",
					na, len(full.Assignments))
			}

			resumeCfg := base(4)
			resumeCfg.Resume = ck
			resumed, err := cluster.Run(resumeCfg, ckptScn(t), tc.factory)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resumed, full) {
				t.Errorf("resumed run diverges from uninterrupted run\nseries resumed %s\nseries full    %s",
					resumed.Series.Fingerprint(), full.Series.Fingerprint())
			}
		})
	}
}

// Same guarantee with the full chaos lifecycle active: scheduled
// drain/fail/join, the seeded MTBF process, migrations, retries and
// autoscaling all cross the checkpoint boundary and still reproduce the
// uninterrupted run exactly — lifecycle summary and series included.
func TestLifecycleCheckpointResumeDeepEqual(t *testing.T) {
	plat := machine.Small(8, 4)
	mkScn := func() *scenario.Open {
		scn, err := scenario.NewPoisson("chaos", pool("xalancbmk06", "lbm06", "povray06", "libquantum06"), 8, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		return scn
	}

	full, err := cluster.Run(chaosConfig(plat, 1), mkScn(), stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}

	for _, stopAt := range []float64{1.2, 1.8} {
		path := filepath.Join(t.TempDir(), "chaos.ckpt")
		partialCfg := chaosConfig(plat, 4)
		partialCfg.StopAfter = stopAt
		partialCfg.Checkpoint = &cluster.CheckpointConfig{Path: path, Every: 0.4}
		partial, err := cluster.Run(partialCfg, mkScn(), stockFactory(plat))
		if err != nil {
			t.Fatalf("stop@%g: %v", stopAt, err)
		}
		if !partial.Interrupted {
			t.Fatalf("stop@%g: run not marked interrupted", stopAt)
		}

		ck, err := cluster.ReadCheckpoint(path)
		if err != nil {
			t.Fatalf("stop@%g: %v", stopAt, err)
		}
		resumeCfg := chaosConfig(plat, 4)
		resumeCfg.Resume = ck
		resumed, err := cluster.Run(resumeCfg, mkScn(), stockFactory(plat))
		if err != nil {
			t.Fatalf("stop@%g: resume: %v", stopAt, err)
		}
		if !reflect.DeepEqual(resumed, full) {
			t.Errorf("stop@%g: resumed chaos run diverges from uninterrupted run", stopAt)
			if resumed.Lifecycle != nil && full.Lifecycle != nil &&
				!reflect.DeepEqual(resumed.Lifecycle, full.Lifecycle) {
				t.Errorf("  lifecycle summaries differ:\n resumed %+v\n full    %+v",
					resumed.Lifecycle, full.Lifecycle)
			}
		}
	}
}

// A checkpoint taken while the whole fleet is down holds the arrivals
// parked for the next join; resuming it places them at the join exactly
// as the uninterrupted run does.
func TestParkedArrivalsCheckpointResumeDeepEqual(t *testing.T) {
	plat := machine.Small(8, 4)
	base := func() cluster.Config {
		return cluster.Config{
			Sim: clusterSimConfig(plat), Machines: 2,
			Placement: cluster.NewRoundRobin(), RecordAssignments: true,
			Lifecycle: &cluster.Lifecycle{
				Events: []cluster.Event{
					{Time: 1, Kind: cluster.MachineFail, Machine: 0},
					{Time: 1.2, Kind: cluster.MachineFail, Machine: 1},
					{Time: 3, Kind: cluster.MachineJoin},
				},
				JoinPolicy: func(_ int, mc sim.Config) (sim.Dynamic, error) {
					return stockFactory(mc.Plat)(0)
				},
			},
		}
	}
	full, err := cluster.Run(base(), ckptScn(t), stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	if full.Lifecycle == nil || full.Lifecycle.Joins != 1 || full.Lifecycle.Unplaced != 0 {
		t.Fatalf("uninterrupted run: lifecycle %+v, want one join and every arrival placed", full.Lifecycle)
	}

	path := filepath.Join(t.TempDir(), "parked.ckpt")
	partialCfg := base()
	partialCfg.StopAfter = 2
	partialCfg.Checkpoint = &cluster.CheckpointConfig{Path: path}
	if _, err := cluster.Run(partialCfg, ckptScn(t), stockFactory(plat)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"parked":[{`)) {
		t.Fatal("checkpoint taken with the fleet down holds no parked arrivals")
	}

	ck, err := cluster.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	resumeCfg := base()
	resumeCfg.Resume = ck
	resumed, err := cluster.Run(resumeCfg, ckptScn(t), stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, full) {
		t.Errorf("resumed run diverges from the uninterrupted run: departed %d vs %d, assignments %v vs %v",
			resumed.Departed, full.Departed, resumed.Assignments, full.Assignments)
	}
}

// Cooperative cancellation: a canceled run returns a partial Result
// marked interrupted (no error), leaves a valid checkpoint behind, and
// resuming that checkpoint completes to the uninterrupted result.
func TestCancelWritesResumableCheckpoint(t *testing.T) {
	plat := machine.Small(8, 4)
	base := func() cluster.Config {
		return cluster.Config{
			Sim: clusterSimConfig(plat), Machines: 3,
			Placement: cluster.NewRoundRobin(), Workers: 4,
		}
	}
	full, err := cluster.Run(base(), ckptScn(t), stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cancel.ckpt")
	var flag sim.CancelFlag
	flag.Cancel()
	cfg := base()
	cfg.Cancel = &flag
	cfg.Checkpoint = &cluster.CheckpointConfig{Path: path}
	partial, err := cluster.Run(cfg, ckptScn(t), stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted {
		t.Fatal("canceled run not marked interrupted")
	}

	ck, err := cluster.ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("canceled run left no valid checkpoint: %v", err)
	}
	resumeCfg := base()
	resumeCfg.Resume = ck
	resumed, err := cluster.Run(resumeCfg, ckptScn(t), stockFactory(plat))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, full) {
		t.Error("resume after cancellation diverges from uninterrupted run")
	}
}

// A canceled parallel run must wind down its worker pool completely: no
// goroutine may outlive Run.
func TestCancelLeavesNoGoroutines(t *testing.T) {
	plat := machine.Small(8, 4)
	before := runtime.NumGoroutine()
	var flag sim.CancelFlag
	flag.Cancel()
	cfg := cluster.Config{
		Sim: clusterSimConfig(plat), Machines: 4,
		Placement: cluster.NewRoundRobin(), Workers: 4,
		Cancel: &flag,
	}
	if _, err := cluster.Run(cfg, ckptScn(t), stockFactory(plat)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after canceled run, %d before", got, before)
	}
}

// Every way a checkpoint file can be bad maps to a typed error, and
// each bad file is rejected for the reason it was built to exercise.
func TestReadCheckpointTypedErrors(t *testing.T) {
	dir := t.TempDir()
	plat := machine.Small(8, 4)
	path := filepath.Join(dir, "real.ckpt")
	cfg := ckptBase(plat, cluster.NewRoundRobin())
	cfg.StopAfter = 1.5
	cfg.Checkpoint = &cluster.CheckpointConfig{Path: path}
	if _, err := cluster.Run(cfg, ckptScn(t), stockFactory(plat)); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.ReadCheckpoint(path); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		t.Fatal("checkpoint has no header line")
	}
	payload = bytes.TrimSuffix(payload, []byte("\n"))

	// file lays a payload out under a header carrying its true checksum.
	file := func(magic string, version int, payload []byte) []byte {
		sum := sha256.Sum256(payload)
		return fmt.Appendf(nil, "{\"magic\":%q,\"version\":%d,\"sha256\":\"%x\"}\n%s\n", magic, version, sum, payload)
	}
	sum := sha256.Sum256(payload)
	v1 := fmt.Appendf(nil, "{\"magic\":\"lfoc-checkpoint\",\"version\":1,\"sha256\":\"%x\",\"payload\":%s}\n", sum, payload)
	tampered := bytes.Replace(data, []byte(`"scenario"`), []byte(`"scenArio"`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper target not found in checkpoint payload")
	}
	points := regexp.MustCompile(`"points":"[^"]+"`)
	if !points.Match(payload) {
		t.Fatal("checkpoint payload holds no packed points")
	}
	partial := points.ReplaceAll(payload, []byte(`"points":"AAAA"`)) // 3 bytes: no whole record

	for _, tc := range []struct {
		name string
		data []byte
		// reason is a substring of the *CheckpointFormatError reason; an
		// empty reason expects a *CheckpointChecksumError.
		reason string
	}{
		{"no header line", []byte(`{"magic":"lfoc-checkpoint","version":2}`), "no header line"},
		{"garbage header", []byte("hello\n"), "malformed header line"},
		{"bad magic", file("nope", cluster.CheckpointVersion, payload), `bad magic "nope"`},
		{"v1 layout", v1, "version 1, this build reads version 2"},
		{"future version", file("lfoc-checkpoint", 3, payload), "version 3, this build reads version 2"},
		{"checksum mismatch", tampered, ""},
		{"truncated payload", data[:len(data)/2], ""},
		{"partial packed record", file("lfoc-checkpoint", cluster.CheckpointVersion, partial), "not a whole number of 104-byte records"},
	} {
		_, err := cluster.ReadCheckpoint(writeFile(t, dir, tc.name, tc.data))
		var ferr *cluster.CheckpointFormatError
		var cerr *cluster.CheckpointChecksumError
		switch {
		case tc.reason == "" && !errors.As(err, &cerr):
			t.Errorf("%s: %v, want *CheckpointChecksumError", tc.name, err)
		case tc.reason != "" && !errors.As(err, &ferr):
			t.Errorf("%s: %v, want *CheckpointFormatError", tc.name, err)
		case tc.reason != "" && !strings.Contains(ferr.Reason, tc.reason):
			t.Errorf("%s: rejected for %q, want %q", tc.name, ferr.Reason, tc.reason)
		}
	}
}

func writeFile(t *testing.T, dir, name string, data []byte) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// The metric-window history is most of a long run's checkpoint, so its
// cost is pinned: a checkpoint grows by at most 140 bytes per recorded
// window — one packed 104-byte record, base64-encoded — between two
// stops that differ in little but the windows recorded.
func TestCheckpointSizePerWindow(t *testing.T) {
	plat := machine.Small(8, 4)
	// Long-running residents and two late arrivals: the stops pause at
	// those arrivals, so between them the only growth besides the
	// windows is one application and a few completed runs.
	spec := pool("povray06")[0]
	scn, err := scenario.NewTrace("size", pool("xalancbmk06", "lbm06", "povray06", "libquantum06"),
		[]scenario.Arrival{{Time: 1, Spec: spec}, {Time: 2.5, Spec: spec}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stop := func(at float64) (size int64, windows int) {
		cfg := ckptBase(plat, cluster.NewRoundRobin())
		cfg.Sim.MetricsWindow = time.Millisecond
		cfg.StopAfter = at
		cfg.Checkpoint = &cluster.CheckpointConfig{Path: filepath.Join(dir, fmt.Sprintf("stop-%g.ckpt", at))}
		res, err := cluster.Run(cfg, scn, stockFactory(plat))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range res.PerMachine {
			windows += m.Open.Series.Len()
		}
		fi, err := os.Stat(cfg.Checkpoint.Path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size(), windows
	}
	s1, w1 := stop(1)
	s2, w2 := stop(2.5)
	if w2-w1 < 1000 {
		t.Fatalf("%d windows recorded between the stops, want enough to swamp everything else", w2-w1)
	}
	if per := float64(s2-s1) / float64(w2-w1); per > 140 {
		t.Errorf("checkpoint grew %d bytes over %d windows: %.1f bytes per window, want at most 140",
			s2-s1, w2-w1, per)
	}
}

// Checkpointing is validated up-front: a placement policy or a
// partitioning policy without snapshot support is rejected with the
// typed error before the run starts, not at the first write.
func TestCheckpointUnsupportedPoliciesTyped(t *testing.T) {
	plat := machine.Small(8, 4)
	path := filepath.Join(t.TempDir(), "never.ckpt")
	var unsup *sim.SnapshotUnsupportedError

	_, err := cluster.Run(cluster.Config{
		Sim: clusterSimConfig(plat), Machines: 2,
		Placement:  badPlacement{idx: 0},
		Checkpoint: &cluster.CheckpointConfig{Path: path},
	}, ckptScn(t), stockFactory(plat))
	if !errors.As(err, &unsup) {
		t.Errorf("snapshot-free placement: %v, want *sim.SnapshotUnsupportedError", err)
	}

	fixedFactory := func(int) (sim.Dynamic, error) {
		return sim.NewFixedPlanPolicy(plan.SingleCluster(1, plat.Ways), 1, plat.Ways)
	}
	_, err = cluster.Run(cluster.Config{
		Sim: clusterSimConfig(plat), Machines: 2,
		Placement:  cluster.NewRoundRobin(),
		Checkpoint: &cluster.CheckpointConfig{Path: path},
	}, ckptScn(t), fixedFactory)
	if !errors.As(err, &unsup) {
		t.Errorf("snapshot-free partitioning policy: %v, want *sim.SnapshotUnsupportedError", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("rejected run wrote a checkpoint anyway")
	}
}

// panicPolicy panics inside the kernel after a fixed number of counter
// windows — a stand-in for a buggy policy plugin.
type panicPolicy struct {
	sim.Dynamic
	left int
}

func (p *panicPolicy) OnWindow(id int, w pmc.Sample) bool {
	p.left--
	if p.left <= 0 {
		panic("policy bug: window bookkeeping exploded")
	}
	return p.Dynamic.OnWindow(id, w)
}

// A panicking policy must not crash the process or deadlock the worker
// pool: the run fails with the typed *RunPanicError naming the machine,
// at any worker count. The calling goroutine claims jobs too, so the
// panicking job may run on the caller or on a helper.
func TestWorkerPanicIsolated(t *testing.T) {
	plat := machine.Small(8, 4)
	for _, workers := range []int{1, 2, 3, 4} {
		factory := func(i int) (sim.Dynamic, error) {
			if i == 1 {
				// Dunn monitors every window, so OnWindow fires often.
				return &panicPolicy{Dynamic: policy.NewDunnDynamic(plat.Ways), left: 3}, nil
			}
			return policy.NewStockDynamic(plat.Ways), nil
		}
		_, err := cluster.Run(cluster.Config{
			Sim: clusterSimConfig(plat), Machines: 3,
			Placement: cluster.NewRoundRobin(), Workers: workers,
		}, ckptScn(t), factory)
		var pe *cluster.RunPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: %v, want *RunPanicError", workers, err)
		}
		if pe.Machine != 1 {
			t.Errorf("workers=%d: panic attributed to machine %d, want 1", workers, pe.Machine)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: panic error carries no stack trace", workers)
		}
	}
}
