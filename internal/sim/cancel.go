package sim

import (
	"errors"
	"sync/atomic"
)

// ErrCanceled is the sentinel a kernel advance returns when its
// CancelFlag fires. It is a pause, not a failure: the machine stays
// valid and a later AdvanceTo (or a checkpoint/restore cycle) continues
// exactly where the canceled advance stopped. Callers that treat
// machine errors as fatal must special-case it with errors.Is.
var ErrCanceled = errors.New("sim: run canceled")

// CancelFlag is a cooperative cancellation signal shared between a
// signal handler (or test) and every kernel a run drives. The kernel
// polls it at tick-loop boundaries — the only places where stopping is
// both cheap and deterministic-to-resume — so cancellation latency is
// one event-horizon batch, not one instruction.
//
// A nil *CancelFlag is valid and never canceled, so single-run code
// pays one nil check and no atomic load. Mask/Unmask let the cluster
// engine suppress delivery during compound operations (migrating a
// machine's residents, applying a lifecycle event) whose intermediate
// states must not leak into a checkpoint.
type CancelFlag struct {
	v      atomic.Bool
	masked atomic.Bool
}

// Cancel requests cooperative cancellation. Idempotent, safe from any
// goroutine (typically a signal handler).
func (c *CancelFlag) Cancel() { c.v.Store(true) }

// Canceled reports whether cancellation has been requested and is not
// currently masked. Nil-safe.
func (c *CancelFlag) Canceled() bool {
	return c != nil && c.v.Load() && !c.masked.Load()
}

// Mask suppresses Canceled until Unmask: the run is inside a compound
// state transition that must complete atomically before a checkpoint
// can be taken. Nil-safe no-op.
func (c *CancelFlag) Mask() {
	if c != nil {
		c.masked.Store(true)
	}
}

// Unmask re-enables delivery. Nil-safe no-op.
func (c *CancelFlag) Unmask() {
	if c != nil {
		c.masked.Store(false)
	}
}
