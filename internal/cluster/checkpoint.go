// Checkpoint/resume: the serialized coordinate of a paused cluster run.
//
// A checkpoint is taken only at an arrival-boundary pause point — the
// top of the engine's merged event/arrival loop, before anything at
// that instant was processed.
// The payload composes the per-machine sim.MachineSnapshots with the
// cluster layer's own coordinate: the next trace-arrival index, the
// per-machine placement counts, the placement policy's state, and (for
// lifecycle runs) the event-heap position, parked/retry queues and
// accounting. Everything else — fleet-queue horizons, placement-visible
// machine states — is rederived on resume: the restored fleet queue
// makes every machine due immediately, so the first synchronization
// re-advances and re-reads the whole fleet, and the kernel's
// pause-point invariance makes those catch-up advances unobservable.
//
// On disk a checkpoint is a one-line JSON header {magic, version,
// sha256}, a newline, the compact JSON payload and a trailing newline.
// The checksum covers the payload bytes, so a truncated or hand-edited
// file is rejected with a typed error before any of it is interpreted,
// and the payload is parsed exactly once. The payload is JSON
// throughout except the metric-window histories, which are packed
// binary records (metrics.PackedWindowedSeries). Files are written
// atomically (temp+rename): a crash mid-write never clobbers the
// previous checkpoint.
package cluster

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/faircache/lfoc/internal/atomicfile"
	"github.com/faircache/lfoc/internal/sim"
)

// checkpointMagic identifies a checkpoint file; CheckpointVersion is the
// current file layout and payload schema version. Version bumps are
// deliberate and rare: a reader only ever accepts the version it was
// built for (resuming is a same-binary, same-config affair — the
// snapshot stores coordinates, not platform models), so an old file
// fails fast with a typed error instead of misinterpreting fields.
const (
	checkpointMagic   = "lfoc-checkpoint"
	CheckpointVersion = 2
)

// CheckpointConfig configures periodic checkpointing of a cluster run.
type CheckpointConfig struct {
	// Path is where checkpoints are written (atomically; each write
	// replaces the previous one). Required.
	Path string
	// Every is the minimum simulated-seconds spacing between periodic
	// checkpoints; the run checkpoints at the first arrival boundary at
	// or past each multiple. 0 writes no periodic checkpoints — only the
	// final one on interruption (cancel or StopAfter).
	Every float64
}

// CheckpointFormatError reports a file that is not a checkpoint (no
// header line, bad magic, malformed JSON or packed records) or whose
// version this binary does not speak.
type CheckpointFormatError struct {
	Path   string
	Reason string
}

func (e *CheckpointFormatError) Error() string {
	return fmt.Sprintf("cluster: checkpoint %s: %s", e.Path, e.Reason)
}

// CheckpointChecksumError reports a checkpoint whose payload does not
// match its recorded checksum — truncation or corruption.
type CheckpointChecksumError struct {
	Path string
	Want string
	Got  string
}

func (e *CheckpointChecksumError) Error() string {
	return fmt.Sprintf("cluster: checkpoint %s: payload checksum mismatch (file says %s, payload hashes to %s)",
		e.Path, e.Want, e.Got)
}

// checkpointHeader is the file's first line.
type checkpointHeader struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	SHA256  string `json:"sha256"`
}

// checkpointPayload is the cluster-run coordinate. NextArrival is the
// index of the first trace arrival not yet processed; everything at
// earlier indices (and every lifecycle event before the pause instant)
// is fully reflected in the machine snapshots and counters.
type checkpointPayload struct {
	Scenario    string `json:"scenario"`
	Placement   string `json:"placement"`
	NextArrival int    `json:"next_arrival"`
	// Placed is the per-machine placement count (len == len(Machines)).
	Placed []int `json:"placed"`
	// Assignments is the per-trace-arrival machine log; present only
	// when the run recorded assignments.
	Assignments []int `json:"assignments,omitempty"`
	// PlacementState is the placement policy's PlacementSnapshot payload.
	PlacementState json.RawMessage `json:"placement_state,omitempty"`
	// Machines holds every machine's full advancement coordinate, in
	// index order (joined machines extend the initial fleet).
	Machines []*sim.MachineSnapshot `json:"machines"`
	// Lifecycle is the engine's coordinate; nil for lifecycle-free runs.
	Lifecycle *engineSnapshot `json:"lifecycle,omitempty"`
}

// Checkpoint is a decoded, checksum-verified checkpoint, ready to hand
// to Config.Resume.
type Checkpoint struct {
	payload checkpointPayload
}

// Scenario returns the checkpointed run's scenario name; Run
// cross-checks it against the resumed scenario.
func (c *Checkpoint) Scenario() string { return c.payload.Scenario }

// Placement returns the checkpointed run's placement policy name.
func (c *Checkpoint) Placement() string { return c.payload.Placement }

// NextArrival returns the index of the first unprocessed trace arrival
// — how far the checkpointed run got.
func (c *Checkpoint) NextArrival() int { return c.payload.NextArrival }

// Machines returns the checkpointed fleet size.
func (c *Checkpoint) Machines() int { return len(c.payload.Machines) }

// writeCheckpointPayload serializes and atomically writes one
// checkpoint. The payload is streamed to the file behind a placeholder
// header line and hashed on the way; the checksum is fixed-width hex,
// so the real header has the placeholder's length and overwrites it in
// place.
func writeCheckpointPayload(path string, p *checkpointPayload) error {
	err := atomicfile.Write(path, 0o644, func(f *os.File) error {
		if _, err := f.Write(checkpointHeaderLine([sha256.Size]byte{})); err != nil {
			return err
		}
		h := sha256.New()
		w := bufio.NewWriter(io.MultiWriter(f, h))
		if err := encodePayload(w, p); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if _, err := f.Write([]byte{'\n'}); err != nil {
			return err
		}
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		_, err := f.WriteAt(checkpointHeaderLine(sum), 0)
		return err
	})
	if err != nil {
		return fmt.Errorf("cluster: write checkpoint: %w", err)
	}
	return nil
}

// encodePayload writes the bytes json.NewEncoder(w).Encode(p) writes,
// without the trailing newline, one machine snapshot at a time: a whole
// fleet's snapshots encoded at once would sit in one buffer. It relies
// on Machines and Lifecycle being the payload's last two fields. Write
// errors surface when the caller flushes w.
func encodePayload(w *bufio.Writer, p *checkpointPayload) error {
	head := *p
	head.Machines, head.Lifecycle = nil, nil
	if err := json.NewEncoder(cutSuffix{w, []byte("null}\n")}).Encode(&head); err != nil {
		return fmt.Errorf("marshal checkpoint: %w", err)
	}
	enc := json.NewEncoder(cutSuffix{w, []byte{'\n'}})
	w.WriteByte('[')
	for i, m := range p.Machines {
		if i > 0 {
			w.WriteByte(',')
		}
		if err := enc.Encode(m); err != nil {
			return fmt.Errorf("marshal checkpoint: machine %d: %w", i, err)
		}
	}
	w.WriteByte(']')
	if p.Lifecycle != nil {
		w.WriteString(`,"lifecycle":`)
		if err := enc.Encode(p.Lifecycle); err != nil {
			return fmt.Errorf("marshal checkpoint: lifecycle: %w", err)
		}
	}
	w.WriteByte('}')
	return nil
}

// cutSuffix passes each write on without its suffix. A json.Encoder
// hands every value, newline included, to a single Write.
type cutSuffix struct {
	w      io.Writer
	suffix []byte
}

func (c cutSuffix) Write(b []byte) (int, error) {
	body, ok := bytes.CutSuffix(b, c.suffix)
	if !ok {
		return 0, fmt.Errorf("encoded JSON does not end in %q", c.suffix)
	}
	if _, err := c.w.Write(body); err != nil {
		return 0, err
	}
	return len(b), nil
}

// checkpointHeaderLine renders the file's first line, newline included.
func checkpointHeaderLine(sum [sha256.Size]byte) []byte {
	return fmt.Appendf(nil, "{\"magic\":%q,\"version\":%d,\"sha256\":\"%x\"}\n", checkpointMagic, CheckpointVersion, sum)
}

// ReadCheckpoint loads and verifies a checkpoint file: header line,
// magic, version, then payload checksum, each failure a typed error.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: read checkpoint: %w", err)
	}
	line, payload, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return nil, &CheckpointFormatError{Path: path, Reason: "not a checkpoint file: no header line"}
	}
	var h checkpointHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return nil, &CheckpointFormatError{Path: path, Reason: fmt.Sprintf("not a checkpoint file: malformed header line: %v", err)}
	}
	if h.Magic != checkpointMagic {
		return nil, &CheckpointFormatError{Path: path, Reason: fmt.Sprintf("bad magic %q", h.Magic)}
	}
	if h.Version != CheckpointVersion {
		return nil, &CheckpointFormatError{Path: path,
			Reason: fmt.Sprintf("version %d, this build reads version %d", h.Version, CheckpointVersion)}
	}
	payload = bytes.TrimSuffix(payload, []byte{'\n'})
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != h.SHA256 {
		return nil, &CheckpointChecksumError{Path: path, Want: h.SHA256, Got: got}
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(payload, &ck.payload); err != nil {
		return nil, &CheckpointFormatError{Path: path, Reason: fmt.Sprintf("malformed payload: %v", err)}
	}
	if len(ck.payload.Placed) != len(ck.payload.Machines) {
		return nil, &CheckpointFormatError{Path: path,
			Reason: fmt.Sprintf("%d placement counts for %d machines", len(ck.payload.Placed), len(ck.payload.Machines))}
	}
	if ck.payload.NextArrival < 0 {
		return nil, &CheckpointFormatError{Path: path,
			Reason: fmt.Sprintf("negative next-arrival index %d", ck.payload.NextArrival)}
	}
	return ck, nil
}

// captureCheckpoint assembles the payload at an arrival-boundary pause
// point. The lifecycle section is written only when the layer is active.
func captureCheckpoint(eng *engine) (*checkpointPayload, error) {
	cfg := eng.cfg
	ps, ok := cfg.Placement.(PlacementSnapshotter)
	if !ok { // validated up-front; defensive here
		return nil, &sim.SnapshotUnsupportedError{What: fmt.Sprintf("placement policy %T", cfg.Placement)}
	}
	pstate, err := ps.PlacementSnapshot()
	if err != nil {
		return nil, fmt.Errorf("cluster: snapshot placement: %w", err)
	}
	p := &checkpointPayload{
		Scenario:       eng.scn.Name(),
		Placement:      cfg.Placement.Name(),
		NextArrival:    eng.ai,
		Placed:         append([]int(nil), eng.placed...),
		Assignments:    append([]int(nil), eng.assignmentLog()...),
		PlacementState: pstate,
		Machines:       make([]*sim.MachineSnapshot, len(eng.pool.machines)),
	}
	for i, m := range eng.pool.machines {
		snap, err := m.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("cluster: machine %d: %w", i, err)
		}
		p.Machines[i] = snap
	}
	if eng.active {
		p.Lifecycle = eng.snapshot()
	}
	return p, nil
}
