package cluster

import "fmt"

// RunPanicError reports a panic recovered inside a fleet-pool job: a
// machine kernel (or the policy it hosts) panicked while advancing. The
// panic is confined to the offending machine's job, whichever goroutine
// runs it — the pool unwinds cleanly and the run fails with this error
// instead of crashing the process — so callers can distinguish a
// modeling bug (errors.As) from an ordinary simulation failure and still
// flush partial output.
type RunPanicError struct {
	// Machine is the index of the machine whose job panicked.
	Machine int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *RunPanicError) Error() string {
	return fmt.Sprintf("cluster: machine %d panicked: %v", e.Machine, e.Value)
}

// PlacementError reports an invalid machine choice by a placement or
// migration policy: an index outside the fleet, or a machine that is
// not eligible (down) at the decision instant. It is a typed error so
// callers embedding policies can distinguish a policy bug from a
// simulation failure with errors.As.
type PlacementError struct {
	// Policy names the deciding policy.
	Policy string
	// Index is the machine index the policy returned.
	Index int
	// Machines is the fleet size at the decision instant.
	Machines int
	// Reason states what made the choice invalid.
	Reason string
}

func (e *PlacementError) Error() string {
	return fmt.Sprintf("cluster: placement %q chose machine %d of %d: %s",
		e.Policy, e.Index, e.Machines, e.Reason)
}

// checkPlaced is the one central validation of every Policy.Place and
// MigrationPolicy.Migrate result — initial placement, per-arrival
// placement, lifecycle requeues and migrations all route through it, so
// an out-of-contract policy fails identically everywhere. up is the
// machine-eligibility mask (nil when every machine is eligible, as in a
// fleet without lifecycle events).
func checkPlaced(policy string, idx, machines int, up []bool) error {
	if idx < 0 || idx >= machines {
		return &PlacementError{Policy: policy, Index: idx, Machines: machines, Reason: "index out of range"}
	}
	if up != nil && !up[idx] {
		return &PlacementError{Policy: policy, Index: idx, Machines: machines, Reason: "machine is not up"}
	}
	return nil
}
