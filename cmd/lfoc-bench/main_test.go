package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Each flag of the applicability table, set next to artifacts that do
// not read it, is a usage error raised before any artifact runs: no
// stdout, exit 2. Set next to an artifact that reads it, it runs.
func TestFlagsApplyOnlyToTheirArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the lfoc-bench binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "lfoc-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (int, string) {
		var stdout strings.Builder
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &stdout
		err := cmd.Run()
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode(), stdout.String()
		}
		if err != nil {
			t.Fatal(err)
		}
		return 0, stdout.String()
	}
	jsonOut := filepath.Join(dir, "t2.json")
	for _, args := range [][]string{
		{"-fig", "5", "-json", jsonOut, "-iters", "3", "-mixes", "2"},
		{"-fig", "6", "-json", jsonOut},
		{"-ablation", "-iters", "3"},
		{"-fig", "3", "-mixes", "2"},
		{"-fig", "2", "-mixes-per-n", "2"},
		{"-fig", "2", "-workloads", "S1"},
		{"-table", "2", "-workloads", "S1"},
		{"-fig", "7", "-budget", "10"},
		{"-ucp", "-budget", "10"},
	} {
		if code, out := run(args...); code != 2 || out != "" {
			t.Errorf("%v: exit %d with %d bytes of stdout, want the usage error 2 before any artifact", args, code, len(out))
		}
	}
	if _, err := os.Stat(jsonOut); err == nil {
		t.Error("a rejected -json still wrote its file")
	}
	for _, args := range [][]string{
		{"-fig", "2", "-mixes", "1", "-budget", "1000", "-scale", "200"},
		{"-fig", "3", "-mixes-per-n", "1", "-budget", "1000", "-scale", "200"},
	} {
		if code, out := run(args...); code != 0 || out == "" {
			t.Errorf("%v: exit %d with %d bytes of stdout, want the artifact", args, code, len(out))
		}
	}
}
