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
// The on-disk format is a small JSON wrapper {magic, version, sha256,
// payload}: the checksum covers the payload bytes exactly as embedded,
// so a truncated or hand-edited file is rejected with a typed error
// before any of it is interpreted. Files are written atomically
// (temp+rename): a crash mid-write never clobbers the previous
// checkpoint.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"github.com/faircache/lfoc/internal/atomicfile"
	"github.com/faircache/lfoc/internal/sim"
)

// checkpointMagic identifies a checkpoint file; CheckpointVersion is the
// current payload schema version. Version bumps are deliberate and rare:
// a reader only ever accepts the version it was built for (resuming is a
// same-binary, same-config affair — the snapshot stores coordinates, not
// platform models), so an old file fails fast with a typed error instead
// of misinterpreting fields.
const (
	checkpointMagic   = "lfoc-checkpoint"
	CheckpointVersion = 1
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

// CheckpointFormatError reports a file that is not a checkpoint (bad
// magic, malformed JSON) or whose version this binary does not speak.
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

// checkpointFile is the on-disk wrapper.
type checkpointFile struct {
	Magic   string          `json:"magic"`
	Version int             `json:"version"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
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
// checkpoint. The checksum is computed over the marshaled payload bytes
// exactly as embedded in the wrapper.
func writeCheckpointPayload(path string, p *checkpointPayload) error {
	raw, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("cluster: marshal checkpoint: %w", err)
	}
	sum := sha256.Sum256(raw)
	out, err := json.Marshal(&checkpointFile{
		Magic:   checkpointMagic,
		Version: CheckpointVersion,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: raw,
	})
	if err != nil {
		return fmt.Errorf("cluster: marshal checkpoint: %w", err)
	}
	out = append(out, '\n')
	if err := atomicfile.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("cluster: write checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint loads and verifies a checkpoint file: magic, version,
// then payload checksum, each failure a typed error.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: read checkpoint: %w", err)
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, &CheckpointFormatError{Path: path, Reason: fmt.Sprintf("not a checkpoint file: %v", err)}
	}
	if f.Magic != checkpointMagic {
		return nil, &CheckpointFormatError{Path: path, Reason: fmt.Sprintf("bad magic %q", f.Magic)}
	}
	if f.Version != CheckpointVersion {
		return nil, &CheckpointFormatError{Path: path,
			Reason: fmt.Sprintf("version %d, this build reads version %d", f.Version, CheckpointVersion)}
	}
	sum := sha256.Sum256(f.Payload)
	if got := hex.EncodeToString(sum[:]); got != f.SHA256 {
		return nil, &CheckpointChecksumError{Path: path, Want: f.SHA256, Got: got}
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(f.Payload, &ck.payload); err != nil {
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
