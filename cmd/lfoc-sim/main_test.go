package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/faircache/lfoc/internal/cluster"
)

// The end-to-end tests share one lfoc-sim binary, built on first use
// into binDir and removed by TestMain.
var (
	buildOnce sync.Once
	binDir    string
	binErr    error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// simBinary returns the path of the built lfoc-sim binary, skipping the
// test in -short mode.
func simBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the lfoc-sim binary")
	}
	buildOnce.Do(func() {
		if binDir, binErr = os.MkdirTemp("", "lfoc-sim-test"); binErr != nil {
			return
		}
		if out, err := exec.Command("go", "build", "-o", filepath.Join(binDir, "lfoc-sim"), ".").CombinedOutput(); err != nil {
			binErr = errors.New("go build: " + err.Error() + "\n" + string(out))
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return filepath.Join(binDir, "lfoc-sim")
}

// The end-to-end crash-safety contract: SIGINT a running cluster run,
// and the process exits 130 after emitting a partial JSON result marked
// "interrupted": true and a valid, resumable checkpoint; resuming that
// checkpoint completes cleanly.
func TestInterruptWritesCheckpointAndPartialResult(t *testing.T) {
	bin := simBinary(t)
	dir := t.TempDir()

	ckpt := filepath.Join(dir, "run.ckpt")
	jsonOut := filepath.Join(dir, "run.json")
	args := []string{
		"-workload", "S3", "-arrivals", "poisson:2", "-duration", "20000", "-seed", "7",
		"-machines", "3", "-placement", "least", "-policy", "stock",
		"-checkpoint", ckpt, "-checkpoint-every", "5", "-json", jsonOut,
	}
	cmd := exec.Command(bin, args...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Interrupt once the first periodic checkpoint proves the run is
	// well underway.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared within 60s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}

	err := cmd.Wait()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("interrupted run exited %v, want exit code 130", err)
	}
	if code := ee.ExitCode(); code != 130 {
		t.Fatalf("interrupted run exited %d, want 130", code)
	}

	data, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatalf("interrupted run wrote no JSON result: %v", err)
	}
	var res struct {
		Interrupted bool `json:"interrupted"`
		Departed    int  `json:"departed"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("partial result is not valid JSON: %v", err)
	}
	if !res.Interrupted {
		t.Error(`partial result lacks "interrupted": true`)
	}

	ck, err := cluster.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("interrupted run left no valid checkpoint: %v", err)
	}
	if ck.NextArrival() <= 0 {
		t.Errorf("checkpoint at arrival %d, want progress before the interrupt", ck.NextArrival())
	}

	// The checkpoint must actually resume: same run flags plus -resume,
	// with a near -stop-after boundary so the test stays fast.
	resume := exec.Command(bin,
		"-workload", "S3", "-arrivals", "poisson:2", "-duration", "20000", "-seed", "7",
		"-machines", "3", "-placement", "least", "-policy", "stock",
		"-resume", ckpt, "-stop-after", "1",
		"-json", filepath.Join(dir, "resumed.json"))
	if out, err := resume.CombinedOutput(); err != nil {
		t.Fatalf("resume failed: %v\n%s", err, out)
	}
}

// sweepOut is the part of a grid's -json output the sweep tests read.
type sweepOut struct {
	Machines int               `json:"machines"`
	Rows     []json.RawMessage `json:"rows"`
}

// runSweep runs lfoc-sim with args plus -json and returns its exit code
// and, on success, the decoded output.
func runSweep(t *testing.T, args ...string) (int, sweepOut) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out.json")
	cmd := exec.Command(simBinary(t), append(args, "-json", out)...)
	var code int
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	var d sweepOut
	if code == 0 {
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &d); err != nil {
			t.Fatal(err)
		}
	}
	return code, d
}

// Each sweep flag combination below was once accepted and silently
// ignored; each must now take effect.
func TestSweepFlagsTakeEffect(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "sweep.yaml")
	if err := os.WriteFile(spec, []byte("spec_version: 1\nseed: 9\nduration_seconds: 4\n"+
		"cohorts:\n  - mix:\n      workload: S1\n    rate:\n      sinusoid:\n        base: 2\n        amplitude: 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Run("sweep autoscale", func(t *testing.T) {
		code, d := runSweep(t, "-workload", "S1", "-sweep", "4", "-machines", "2", "-placement", "least", "-policy", "lfoc",
			"-autoscale", "i=0.5,up=0.2,max=4", "-duration", "3", "-seed", "7")
		if code != 0 || len(d.Rows) != 1 {
			t.Fatalf("exit %d, %d rows", code, len(d.Rows))
		}
		var row struct {
			Lifecycle *struct {
				Joins int `json:"joins"`
			} `json:"lifecycle"`
		}
		if err := json.Unmarshal(d.Rows[0], &row); err != nil {
			t.Fatal(err)
		}
		if row.Lifecycle == nil || row.Lifecycle.Joins == 0 {
			t.Errorf("autoscale ignored: row %s", d.Rows[0])
		}
	})
	t.Run("spec-sweep machine-mix", func(t *testing.T) {
		code, d := runSweep(t, "-spec-sweep", spec, "-machine-mix", "2x11way,2x7way", "-policy", "lfoc", "-placement", "rr")
		if code != 0 || d.Machines != 4 {
			t.Errorf("exit %d, %d machines, want 4", code, d.Machines)
		}
	})
	t.Run("spec-sweep seed", func(t *testing.T) {
		_, a := runSweep(t, "-spec-sweep", spec, "-policy", "stock", "-seed", "1")
		_, b := runSweep(t, "-spec-sweep", spec, "-policy", "stock", "-seed", "5")
		if len(a.Rows) != 1 || reflect.DeepEqual(a.Rows, b.Rows) {
			t.Errorf("-seed ignored: %s vs %s", a.Rows, b.Rows)
		}
	})
	t.Run("spec-sweep duration", func(t *testing.T) {
		if code, _ := runSweep(t, "-spec-sweep", spec, "-duration", "9"); code != 2 {
			t.Errorf("exit %d, want the usage error 2", code)
		}
	})
	t.Run("spec-sweep missing file", func(t *testing.T) {
		if code, _ := runSweep(t, "-spec-sweep", filepath.Join(t.TempDir(), "missing.yaml")); code != 1 {
			t.Errorf("exit %d, want 1", code)
		}
	})
	t.Run("sweep policy", func(t *testing.T) {
		code, d := runSweep(t, "-workload", "S3", "-sweep", "2", "-policy", "lfoc", "-duration", "3", "-scale", "200")
		if code != 0 || len(d.Rows) != 1 {
			t.Errorf("exit %d, %d rows, want 1", code, len(d.Rows))
		}
	})
}

// -record-assignments keeps the assignment log of a single cluster run.
// Sweeps, open runs on one machine and closed runs once accepted it and
// wrote no log; each is now a usage error.
func TestRecordAssignmentsNeedsClusterRun(t *testing.T) {
	open := []string{"-workload", "S3", "-arrivals", "poisson:2", "-duration", "3", "-scale", "200", "-record-assignments"}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"sweep", []string{"-workload", "S3", "-sweep", "2", "-policy", "lfoc", "-duration", "3", "-scale", "200", "-record-assignments"}},
		{"open run", open},
		{"closed run", []string{"-workload", "S3", "-scale", "200", "-record-assignments"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if code, _ := runSweep(t, c.args...); code != 2 {
				t.Errorf("exit %d, want the usage error 2", code)
			}
		})
	}
	t.Run("cluster run", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "out.json")
		if err := exec.Command(simBinary(t), append(open, "-machines", "2", "-json", out)...).Run(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Assignments []int `json:"assignments"`
		}
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Assignments) == 0 {
			t.Error("cluster run wrote no assignment log")
		}
	})
}

// Each input below was once accepted and then ignored (-scale 0 was
// half-applied: unscaled specs under the default scale's quota), or
// sets a flag in a run its applicability-table row excludes; each is
// now a usage error, caught before any simulation starts. With
// TestRecordAssignmentsNeedsClusterRun, every row has a case.
func TestIgnoredInputsAreUsageErrors(t *testing.T) {
	open := func(extra ...string) []string {
		return append([]string{"-workload", "S3", "-arrivals", "poisson:2", "-duration", "3", "-scale", "200"}, extra...)
	}
	closed := func(extra ...string) []string {
		return append([]string{"-workload", "S3", "-scale", "200"}, extra...)
	}
	sweep := func(extra ...string) []string {
		return append([]string{"-workload", "S3", "-sweep", "2", "-policy", "stock", "-duration", "3", "-scale", "200"}, extra...)
	}
	spec := filepath.Join("..", "..", "examples", "specs", "diurnal-bursty.yaml")
	missing := filepath.Join(t.TempDir(), "missing")
	for _, c := range []struct {
		name string
		args []string
	}{
		{"scale 0", []string{"-workload", "P1", "-scale", "0"}},
		{"closed run duration", closed("-duration", "3")},
		{"closed run seed", closed("-seed", "2")},
		{"max-retries on a cluster run", open("-machines", "2", "-max-retries", "2")},
		{"retry-backoff on an open run", open("-retry-backoff", "0.5")},
		{"migration-cost on a sweep", sweep("-migration-cost", "0.1")},
		{"apps next to workload", closed("-apps", "lbm06,povray06")},
		{"seed on uniform arrivals", []string{"-workload", "S3", "-arrivals", "uniform:0.5", "-duration", "3",
			"-scale", "200", "-seed", "5"}},
		{"machines 1 on a closed run", closed("-machines", "1")},
		{"checkpoint-every without checkpoint", open("-machines", "2", "-checkpoint-every", "0")},
		{"workload on a spec run", []string{"-workload-spec", spec, "-workload", "S3"}},
		{"apps on a spec sweep", []string{"-spec-sweep", spec, "-apps", "lbm06"}},
		{"duration on a replay", []string{"-replay-trace", missing, "-duration", "3"}},
		{"seed on a replay", []string{"-replay-trace", missing, "-seed", "3"}},
		{"record-trace on a sweep", sweep("-record-trace", missing)},
		{"machine-mix on a closed run", closed("-machine-mix", "2x11way")},
		{"placement on a closed run", closed("-placement", "least")},
		{"events on a closed run", closed("-events", "fail:t=1,m=0")},
		{"mtbf on a closed run", closed("-mtbf", "3")},
		{"autoscale on a closed run", closed("-autoscale", "i=1")},
		{"checkpoint on a sweep", sweep("-checkpoint", missing)},
		{"resume on a closed run", closed("-resume", missing)},
		{"stop-after on a sweep", sweep("-stop-after", "1")},
		{"mtbf NaN", open("-machines", "2", "-mtbf", "NaN")},
		{"stop-after NaN", open("-machines", "2", "-stop-after", "NaN")},
		{"duration NaN", open("-duration", "NaN")},
		{"negative mtbf", open("-mtbf", "-1")},
	} {
		t.Run(c.name, func(t *testing.T) {
			if code, _ := runSweep(t, c.args...); code != 2 {
				t.Errorf("exit %d, want the usage error 2", code)
			}
		})
	}
}

// A negative -retry-backoff once failed mid-run, once the fleet reached
// a retry scheduled before the failure that caused it, and a negative
// -max-retries ran to completion with every displaced application
// dead-lettered at its first failure. The cluster now rejects both
// before the run: exit 1, and nothing on stdout.
func TestBadRetryPolicyFailsBeforeTheRun(t *testing.T) {
	fleet := func(extra ...string) []string {
		return append([]string{"-workload", "S3", "-arrivals", "poisson:8", "-duration", "3", "-scale", "200",
			"-machines", "2", "-placement", "least", "-events", "fail:t=1,m=0"}, extra...)
	}
	for _, c := range []struct {
		name string
		args []string
		want string // in the error message
	}{
		{"negative retry-backoff", fleet("-retry-backoff", "-0.5"), "retry backoff -0.5"},
		{"negative max-retries", fleet("-max-retries", "-1"), "max retries -1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(simBinary(t), c.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				t.Errorf("exit %v, want exit status 1", err)
			}
			if stdout.Len() > 0 {
				t.Errorf("stdout not empty:\n%s", stdout.Bytes())
			}
			if !bytes.Contains(stderr.Bytes(), []byte(c.want)) {
				t.Errorf("stderr %q does not name %q", stderr.Bytes(), c.want)
			}
		})
	}
}
