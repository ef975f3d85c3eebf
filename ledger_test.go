package lfoc_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.txt with this build's output digests")

// ledgerPath is the output ledger: the deterministic CLI runs (every
// CI determinism command, a Dunn checkpoint stop+resume, and the
// lfoc-bench figures) with the sha256 digest of each output they write.
const ledgerPath = "testdata/ledger.txt"

// ledgerLine is one line of the ledger file: a comment or blank line
// (kept verbatim), a command ("$ tool args…"), or an output digest
// ("<sha256>  <name>") of the command above it.
type ledgerLine struct {
	text   string
	cmd    string // the command after "$ ", or ""
	digest string // set on a digest line
	name   string
}

// TestOutputLedger rebuilds lfoc-sim and lfoc-bench, reruns every
// ledger command in order from the repository root, and requires the
// digest of each output — stdout, then every $OUT/<file> argument the
// command creates — to equal the recorded one. Commands share one $OUT
// directory, so a trace or checkpoint a command writes can be read by a
// later one. A change that moves a digest on purpose reruns the test
// with -update and says why in CHANGES.md.
func TestOutputLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("builds lfoc-sim and lfoc-bench and reruns every ledger command")
	}
	// The digests were recorded with go1.24; another release may round
	// or iterate differently in ways no test here pins.
	if v := runtime.Version(); v != "go1.24" && !strings.HasPrefix(v, "go1.24.") {
		t.Skipf("ledger digests are for go1.24, not %s", v)
	}
	lines := readLedger(t)
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/lfoc-sim", "./cmd/lfoc-bench").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out := t.TempDir()
	var rewritten []string
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if l.digest != "" {
			t.Fatalf("%s: digest line %q follows no command", ledgerPath, l.text)
		}
		if l.cmd == "" {
			rewritten = append(rewritten, l.text)
			continue
		}
		got := runLedgerCommand(t, bin, out, l.cmd)
		var want []ledgerLine
		for i+1 < len(lines) && lines[i+1].digest != "" {
			i++
			want = append(want, lines[i])
		}
		rewritten = append(rewritten, l.text)
		for _, g := range got {
			rewritten = append(rewritten, g.text)
		}
		if *updateLedger {
			continue
		}
		if len(got) != len(want) {
			t.Errorf("%s\n\twrote %d outputs, the ledger records %d", l.cmd, len(got), len(want))
			continue
		}
		for j := range got {
			if got[j].name != want[j].name || got[j].digest != want[j].digest {
				t.Errorf("%s\n\toutput %s: digest %s, the ledger records %s for %s",
					l.cmd, got[j].name, got[j].digest, want[j].digest, want[j].name)
			}
		}
	}
	if *updateLedger {
		if err := os.WriteFile(ledgerPath, []byte(strings.Join(rewritten, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readLedger parses the ledger file into lines.
func readLedger(t *testing.T) []ledgerLine {
	t.Helper()
	data, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	var lines []ledgerLine
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		text := sc.Text()
		l := ledgerLine{text: text}
		switch {
		case strings.HasPrefix(text, "$ "):
			l.cmd = strings.TrimPrefix(text, "$ ")
		case text != "" && !strings.HasPrefix(text, "#"):
			digest, name, ok := strings.Cut(text, "  ")
			if !ok || len(digest) != 2*sha256.Size {
				t.Fatalf("%s: malformed line %q", ledgerPath, text)
			}
			l.digest, l.name = digest, name
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// runLedgerCommand runs one ledger command with $OUT bound to out and
// returns the digest lines of its outputs: stdout (with out written
// back as $OUT), then each $OUT/<file>
// argument that did not exist before the command ran (an existing one
// is an input, such as a trace to replay or a checkpoint to resume).
func runLedgerCommand(t *testing.T, bin, out, cmd string) []ledgerLine {
	t.Helper()
	args := strings.Fields(cmd)
	if len(args) == 0 || (args[0] != "lfoc-sim" && args[0] != "lfoc-bench") {
		t.Fatalf("%s: ledger commands run lfoc-sim or lfoc-bench, not %q", ledgerPath, cmd)
	}
	var files []string
	for i, a := range args[1:] {
		if !strings.HasPrefix(a, "$OUT/") {
			continue
		}
		name := strings.TrimPrefix(a, "$OUT/")
		args[i+1] = filepath.Join(out, name)
		if _, err := os.Stat(args[i+1]); os.IsNotExist(err) {
			files = append(files, name)
		}
	}
	var stdout, stderr bytes.Buffer
	c := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
	c.Stdout, c.Stderr = &stdout, &stderr
	if err := c.Run(); err != nil {
		t.Fatalf("%s: %v\n%s", cmd, err, stderr.Bytes())
	}
	// A stopped run names its checkpoint; the scratch path reads $OUT.
	text := bytes.ReplaceAll(stdout.Bytes(), []byte(out), []byte("$OUT"))
	digests := []ledgerLine{digestLine(sha256.Sum256(text), "stdout")}
	for _, name := range files {
		f, err := os.Open(filepath.Join(out, name))
		if err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		h := sha256.New()
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, digestLine([sha256.Size]byte(h.Sum(nil)), name))
	}
	return digests
}

func digestLine(sum [sha256.Size]byte, name string) ledgerLine {
	d := hex.EncodeToString(sum[:])
	return ledgerLine{text: fmt.Sprintf("%s  %s", d, name), digest: d, name: name}
}
