package sim_test

import (
	"strings"
	"testing"

	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/sim"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

func newTestMachine(t *testing.T, cfg sim.Config, name string, initial []string) *sim.OpenMachine {
	t.Helper()
	m, err := sim.NewOpenMachine(cfg, policy.NewStockDynamic(cfg.Plat.Ways), name, openPool(initial...), 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Extract → inject round-trip: applications lifted off a drained
// machine resume on the destination with their progress coordinate
// intact, the source reports them as evicted (neither departed nor
// remaining), and end-of-life stats span both machines. The destination
// is an identical machine advanced to the same instant, so each migrated
// app must finish exactly as it would have without the migration.
func TestMigrateRoundTrip(t *testing.T) {
	cfg := openConfig()
	cfg.Plat = machine.Small(8, 4)
	cfg.TargetInsns = 5_000_000_000 // keep both apps resident past the extraction instant
	ref := newTestMachine(t, cfg, "ref", []string{"lbm06", "povray06"})
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
	unmigrated := map[string]sim.AppOutcome{}
	for _, a := range ref.Result().Apps {
		unmigrated[a.Name] = a
	}
	src := newTestMachine(t, cfg, "src", []string{"lbm06", "povray06"})
	if err := src.AdvanceTo(0.2); err != nil {
		t.Fatal(err)
	}
	residents := src.ExtractResidents(nil)
	if len(residents) != 2 {
		t.Fatalf("extracted %d residents, want 2", len(residents))
	}
	for _, r := range residents {
		if r.Queued {
			t.Fatalf("active resident %s extracted as queued", r.Spec.Name)
		}
		if r.RunInsns == 0 || r.AloneSeconds == 0 {
			t.Errorf("resident %s lost its progress coordinate: %+v", r.Spec.Name, r)
		}
		if r.ArrivedAt != 0 || r.AdmittedAt != 0 {
			t.Errorf("resident %s arrival/admission not preserved: %+v", r.Spec.Name, r)
		}
	}
	if src.Active() != 0 || src.Queued() != 0 {
		t.Fatalf("source not emptied: %d active, %d queued", src.Active(), src.Queued())
	}
	src.Halt()
	sres := src.Result()
	if sres.Evicted != 2 || sres.Departed != 0 || sres.Remaining != 0 {
		t.Errorf("source result = evicted %d departed %d remaining %d, want 2/0/0",
			sres.Evicted, sres.Departed, sres.Remaining)
	}

	dst := newTestMachine(t, cfg, "dst", nil)
	if err := dst.AdvanceTo(0.2); err != nil {
		t.Fatal(err)
	}
	for _, r := range residents {
		if err := dst.InjectResident(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.Drain(); err != nil {
		t.Fatal(err)
	}
	dres := dst.Result()
	if dres.Departed != 2 || dres.Remaining != 0 || dres.Evicted != 0 {
		t.Fatalf("destination result = departed %d remaining %d evicted %d, want 2/0/0",
			dres.Departed, dres.Remaining, dres.Evicted)
	}
	for _, a := range dres.Apps {
		// The apps arrived at t=0 on the source; their slowdown on the
		// destination must account for that span, so it strictly exceeds 1
		// even though the destination saw them only from t=0.2.
		if a.Slowdown <= 1 {
			t.Errorf("%s slowdown = %v, want > 1 (end-to-end across machines)", a.Name, a.Slowdown)
		}
		if a.ArrivedAt != 0 {
			t.Errorf("%s arrival time = %v, want the original 0", a.Name, a.ArrivedAt)
		}
		// The run quota comes from the destination's TargetInsns, as on
		// admission: the app retires the rest of it, not zero.
		want := unmigrated[a.Name]
		if a.DepartedAt != want.DepartedAt || a.AloneSeconds != want.AloneSeconds {
			t.Errorf("%s departed at %v with alone_seconds %v, want %v and %v as without the migration",
				a.Name, a.DepartedAt, a.AloneSeconds, want.DepartedAt, want.AloneSeconds)
		}
	}
}

// Queued residents (admission queue or undelivered arrivals) carry no
// progress: they must be requeued through normal placement, and the
// injection path enforces that.
func TestMigrateQueuedResidentRejected(t *testing.T) {
	cfg := openConfig()
	cfg.Plat = machine.Small(8, 1)
	src := newTestMachine(t, cfg, "src", []string{"lbm06", "povray06"})
	if err := src.AdvanceTo(0.1); err != nil {
		t.Fatal(err)
	}
	residents := src.ExtractResidents(nil)
	if len(residents) != 2 {
		t.Fatalf("extracted %d residents, want 2 (1 active + 1 queued)", len(residents))
	}
	var queued *sim.Resident
	for i := range residents {
		if residents[i].Queued {
			queued = &residents[i]
		}
	}
	if queued == nil {
		t.Fatal("single-core machine with two apps extracted no queued resident")
	}
	if queued.AdmittedAt >= 0 {
		t.Errorf("queued resident has admission time %v, want negative", queued.AdmittedAt)
	}
	dst := newTestMachine(t, cfg, "dst", nil)
	if err := dst.InjectResident(*queued); err == nil {
		t.Error("queued resident injected, want rejection")
	} else if !strings.Contains(err.Error(), "requeue") {
		t.Errorf("queued-resident error %q does not point at requeueing", err)
	}
}

// A halted machine is out of service: injection fails loudly while
// AdvanceTo and Drain are silent no-ops, so the fleet pool can treat up
// and down machines uniformly.
func TestHaltedMachineSemantics(t *testing.T) {
	cfg := openConfig()
	cfg.Plat = machine.Small(8, 2)
	m := newTestMachine(t, cfg, "m", []string{"lbm06"})
	if err := m.AdvanceTo(0.1); err != nil {
		t.Fatal(err)
	}
	residents := m.ExtractResidents(nil)
	m.Halt()
	if !m.Halted() {
		t.Fatal("Halted() false after Halt")
	}
	m.Halt() // idempotent
	now := m.Now()
	if err := m.AdvanceTo(now + 5); err != nil {
		t.Errorf("AdvanceTo on halted machine errored: %v", err)
	}
	if m.Now() != now {
		t.Errorf("halted machine advanced from %v to %v", now, m.Now())
	}
	if err := m.Drain(); err != nil {
		t.Errorf("Drain on halted machine errored: %v", err)
	}
	if err := m.InjectResident(residents[0]); err == nil {
		t.Error("resident injected into halted machine")
	}
	if err := m.Inject(scenario.Arrival{Time: now, Spec: openPool("povray06")[0]}); err == nil {
		t.Error("arrival injected into halted machine")
	}
}

// Injection needs a free core — a full machine rejects the resident so
// the lifecycle layer falls back to requeueing instead of silently
// oversubscribing.
func TestMigrateNoFreeCore(t *testing.T) {
	cfg := openConfig()
	cfg.Plat = machine.Small(8, 1)
	src := newTestMachine(t, cfg, "src", []string{"lbm06"})
	if err := src.AdvanceTo(0.1); err != nil {
		t.Fatal(err)
	}
	residents := src.ExtractResidents(nil)
	src.Halt()
	dst := newTestMachine(t, cfg, "dst", []string{"povray06"})
	if err := dst.AdvanceTo(0.1); err != nil {
		t.Fatal(err)
	}
	if err := dst.InjectResident(residents[0]); err == nil {
		t.Error("resident injected into a machine with no free core")
	}
}
