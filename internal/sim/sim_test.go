package sim

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/faircache/lfoc/internal/appmodel"
	"github.com/faircache/lfoc/internal/cat"
	"github.com/faircache/lfoc/internal/core"
	"github.com/faircache/lfoc/internal/machine"
	"github.com/faircache/lfoc/internal/plan"
	"github.com/faircache/lfoc/internal/pmc"
	"github.com/faircache/lfoc/internal/policy"
	"github.com/faircache/lfoc/internal/profiles"
	"github.com/faircache/lfoc/internal/sim/equil"
	"github.com/faircache/lfoc/internal/sim/scenario"
)

func testConfig() Config {
	return Config{
		Plat:         machine.Skylake(),
		TargetInsns:  1_000_000_000,
		PolicyPeriod: 500 * time.Millisecond,
	}
}

func specsOf(names ...string) []*appmodel.Spec {
	out := make([]*appmodel.Spec, len(names))
	for i, n := range names {
		out[i] = profiles.MustGet(n)
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	c := Config{}
	if c.Validate() == nil {
		t.Error("empty config accepted")
	}
	c = Config{Plat: machine.Skylake()}
	if c.Validate() == nil {
		t.Error("zero TargetInsns accepted")
	}
	c = testConfig()
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
	if c.TicksPerPeriod != 250 {
		t.Error("defaults not applied")
	}
}

func TestAloneCompletionTime(t *testing.T) {
	plat := machine.Skylake()
	spec := profiles.MustGet("povray06")
	ct := AloneCompletionTime(spec, plat, 1_000_000_000)
	perf := appmodel.PhasePerf(&spec.Phases[0], plat, plat.LLCBytes(), 1)
	want := 1e9 / (perf.IPC * float64(plat.FreqHz))
	if math.Abs(ct-want)/want > 1e-9 {
		t.Errorf("alone CT = %v, want %v", ct, want)
	}
	// Phased app: the alone time must account for both phases.
	phased := profiles.MustGet("xz17")
	ctp := AloneCompletionTime(phased, plat, 100_000_000_000)
	if ctp <= 0 {
		t.Errorf("phased alone CT = %v", ctp)
	}
}

func TestStaticSoloAppSlowdownIsOne(t *testing.T) {
	cfg := testConfig()
	specs := specsOf("povray06")
	res, err := RunStatic(cfg, specs, plan.SingleCluster(1, cfg.Plat.Ways))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RunTimes[0]) < 3 {
		t.Fatalf("only %d runs completed", len(res.RunTimes[0]))
	}
	if res.Slowdowns[0] > 1.02 {
		t.Errorf("solo slowdown = %v, want ~1", res.Slowdowns[0])
	}
	if res.Summary.Unfairness != 1 {
		t.Errorf("solo unfairness = %v", res.Summary.Unfairness)
	}
}

func TestStaticStockShowsContention(t *testing.T) {
	cfg := testConfig()
	specs := specsOf("xalancbmk06", "lbm06", "libquantum06", "povray06")
	res, err := RunStatic(cfg, specs, plan.SingleCluster(4, cfg.Plat.Ways))
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdowns[0] < 1.2 {
		t.Errorf("sensitive slowdown under stock = %v, want > 1.2", res.Slowdowns[0])
	}
	if res.Summary.Unfairness < 1.15 {
		t.Errorf("unfairness = %v, want contention", res.Summary.Unfairness)
	}
	// Everyone completed at least RunsTarget runs.
	for i, rt := range res.RunTimes {
		if len(rt) < 3 {
			t.Errorf("app %d completed %d runs", i, len(rt))
		}
	}
}

func TestStaticIsolationPlanReducesUnfairness(t *testing.T) {
	cfg := testConfig()
	specs := specsOf("xalancbmk06", "lbm06", "libquantum06", "povray06")
	stock, err := RunStatic(cfg, specs, plan.SingleCluster(4, cfg.Plat.Ways))
	if err != nil {
		t.Fatal(err)
	}
	iso := plan.Plan{Clusters: []plan.Cluster{
		{Apps: []int{1, 2}, Ways: 1},
		{Apps: []int{0}, Ways: 8},
		{Apps: []int{3}, Ways: 2},
	}}
	lfocish, err := RunStatic(cfg, specs, iso)
	if err != nil {
		t.Fatal(err)
	}
	if lfocish.Summary.Unfairness >= stock.Summary.Unfairness {
		t.Errorf("isolation unfairness %.3f >= stock %.3f",
			lfocish.Summary.Unfairness, stock.Summary.Unfairness)
	}
}

func TestDynamicLFOCLearnsAndImproves(t *testing.T) {
	cfg := testConfig()
	specs := specsOf("xalancbmk06", "soplex06", "lbm06", "libquantum06", "povray06", "namd06")

	stockPol := policy.NewStockDynamic(cfg.Plat.Ways)
	stock, err := RunDynamic(cfg, specs, stockPol)
	if err != nil {
		t.Fatal(err)
	}

	ctrl, err := core.NewController(core.DefaultParams(cfg.Plat.Ways), cfg.Plat.WayBytes)
	if err != nil {
		t.Fatal(err)
	}
	lfoc, err := RunDynamic(cfg, specs, ctrl)
	if err != nil {
		t.Fatal(err)
	}

	// Classes must have been learned online.
	if ctrl.ClassOf(2) != core.ClassStreaming || ctrl.ClassOf(3) != core.ClassStreaming {
		t.Errorf("streaming apps classified as %v/%v", ctrl.ClassOf(2), ctrl.ClassOf(3))
	}
	if ctrl.ClassOf(0) != core.ClassSensitive {
		t.Errorf("xalancbmk classified as %v", ctrl.ClassOf(0))
	}
	if lfoc.Summary.Unfairness >= stock.Summary.Unfairness {
		t.Errorf("LFOC unfairness %.3f >= stock %.3f",
			lfoc.Summary.Unfairness, stock.Summary.Unfairness)
	}
	if lfoc.Repartitions == 0 {
		t.Error("partitioner never ran")
	}
}

func TestDynamicDunnRuns(t *testing.T) {
	cfg := testConfig()
	specs := specsOf("xalancbmk06", "lbm06", "povray06", "gamess06")
	pol := policy.NewDunnDynamic(cfg.Plat.Ways)
	res, err := RunDynamic(cfg, specs, pol)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.STP <= 0 || res.Summary.Unfairness < 1 {
		t.Errorf("bad summary: %+v", res.Summary)
	}
}

func TestDynamicPhaseChangeTriggersResampling(t *testing.T) {
	cfg := testConfig()
	cfg.TargetInsns = 2_000_000_000
	// A custom phased app: light for 600M insns, then streaming.
	phased := &appmodel.Spec{
		Name:  "phasey",
		Class: appmodel.ClassStreaming,
		Phases: []appmodel.PhaseSpec{
			{Name: "quiet", DurationInsns: 600_000_000, BaseCPI: 0.5, APKI: 0.5, MLP: 4,
				Locality: profiles.MustGet("povray06").Phases[0].Locality},
			{Name: "stream", DurationInsns: 0, BaseCPI: 0.6, APKI: 55, MLP: 9,
				Locality: profiles.MustGet("lbm06").Phases[0].Locality},
		},
	}
	specs := []*appmodel.Spec{phased, profiles.MustGet("soplex06")}
	ctrl, err := core.NewController(core.DefaultParams(cfg.Plat.Ways), cfg.Plat.WayBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDynamic(cfg, specs, ctrl); err != nil {
		t.Fatal(err)
	}
	if ctrl.ClassOf(0) != core.ClassStreaming {
		t.Errorf("phased app ended as %v, want streaming", ctrl.ClassOf(0))
	}
	if ctrl.Resamples(0) == 0 {
		t.Error("no resampling despite phase change")
	}
}

func TestRunDynamicErrors(t *testing.T) {
	cfg := testConfig()
	pol := policy.NewStockDynamic(cfg.Plat.Ways)
	if _, err := RunDynamic(cfg, nil, pol); err == nil {
		t.Error("empty workload accepted")
	}
	many := make([]*appmodel.Spec, cfg.Plat.Cores+1)
	for i := range many {
		many[i] = profiles.MustGet("povray06")
	}
	if _, err := RunDynamic(cfg, many, policy.NewStockDynamic(cfg.Plat.Ways)); err == nil {
		t.Error("more apps than cores accepted")
	}
}

func TestRunStaticRejectsBadPlan(t *testing.T) {
	cfg := testConfig()
	specs := specsOf("povray06", "namd06")
	bad := plan.Plan{Clusters: []plan.Cluster{{Apps: []int{0}, Ways: 11}}}
	if _, err := RunStatic(cfg, specs, bad); err == nil {
		t.Error("plan missing an app accepted")
	}
}

func TestMaxSimTimeGuard(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSimTime = time.Millisecond // absurdly small
	specs := specsOf("povray06")
	if _, err := RunStatic(cfg, specs, plan.SingleCluster(1, cfg.Plat.Ways)); err == nil {
		t.Error("MaxSimTime guard did not fire")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig()
	specs := specsOf("xalancbmk06", "lbm06", "povray06")
	run := func() *Result {
		ctrl, err := core.NewController(core.DefaultParams(cfg.Plat.Ways), cfg.Plat.WayBytes)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunDynamic(cfg, specs, ctrl)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	for i := range a.Slowdowns {
		if a.Slowdowns[i] != b.Slowdowns[i] {
			t.Fatalf("nondeterministic slowdowns: %v vs %v", a.Slowdowns, b.Slowdowns)
		}
	}
}

func TestRunAccounting(t *testing.T) {
	cfg := testConfig()
	specs := specsOf("xalancbmk06", "lbm06", "povray06")
	res, err := RunStatic(cfg, specs, plan.SingleCluster(3, cfg.Plat.Ways))
	if err != nil {
		t.Fatal(err)
	}
	for i, runs := range res.RunTimes {
		if len(runs) < 3 {
			t.Errorf("app %d: %d runs", i, len(runs))
		}
		var sum float64
		for _, r := range runs {
			if r <= 0 {
				t.Errorf("app %d: non-positive run time %v", i, r)
			}
			sum += r
		}
		// An app is always running, so its completed runs cannot take
		// longer than the whole experiment.
		if sum > res.SimSeconds+1e-9 {
			t.Errorf("app %d: runs sum %.3f > sim %.3f", i, sum, res.SimSeconds)
		}
		if res.CT[i] <= 0 || res.AloneCT[i] <= 0 {
			t.Errorf("app %d: CT %v alone %v", i, res.CT[i], res.AloneCT[i])
		}
	}
}

func TestRepartitionCadence(t *testing.T) {
	cfg := testConfig()
	specs := specsOf("povray06", "namd06")
	pol := policy.NewDunnDynamic(cfg.Plat.Ways)
	res, err := RunDynamic(cfg, specs, pol)
	if err != nil {
		t.Fatal(err)
	}
	expected := res.SimSeconds / cfg.PolicyPeriod.Seconds()
	if float64(res.Repartitions) < expected-2 || float64(res.Repartitions) > expected+2 {
		t.Errorf("repartitions = %d, expected ~%.0f", res.Repartitions, expected)
	}
}

// The §5.2 concern: LFOC's online sampling episodes run the workload
// under deliberately suboptimal configurations. With early stopping they
// must cost little — dynamic LFOC should stay close to the quality of
// its own static decision (which pays no sampling overhead).
func TestSamplingOverheadSmall(t *testing.T) {
	cfg := testConfig()
	specs := specsOf("xalancbmk06", "soplex06", "lbm06", "povray06")

	ctrl, err := core.NewController(core.DefaultParams(cfg.Plat.Ways), cfg.Plat.WayBytes)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := RunDynamic(cfg, specs, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	// Re-run the final learned plan statically.
	static, err := RunStatic(cfg, specs, ctrl.Plan())
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Summary.Unfairness > static.Summary.Unfairness*1.15 {
		t.Errorf("sampling overhead too high: dynamic %.3f vs static %.3f",
			dyn.Summary.Unfairness, static.Summary.Unfairness)
	}
}

// Dynamic's idle guarantee, for every policy that implements it: after
// one activation with no applications, 100 more return a plan with the
// same clusters and the same masks and leave the snapshot bytes as they
// were, both on a fresh policy and on one that planned an application
// and lost it.
func TestIdleActivationsIdempotent(t *testing.T) {
	plat := machine.Skylake()
	policies := []struct {
		name string
		mk   func(t *testing.T) Dynamic
	}{
		{"lfoc", func(t *testing.T) Dynamic {
			ctrl, err := core.NewController(core.DefaultParams(plat.Ways), plat.WayBytes)
			if err != nil {
				t.Fatal(err)
			}
			return ctrl
		}},
		{"dunn", func(*testing.T) Dynamic { return policy.NewDunnDynamic(plat.Ways) }},
		{"stock", func(*testing.T) Dynamic { return policy.NewStockDynamic(plat.Ways) }},
		{"fixed", func(t *testing.T) Dynamic {
			f, err := NewFixedPlanPolicy(plan.SingleCluster(1, plat.Ways), 1, plat.Ways)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
	}
	histories := []struct {
		name string
		run  func(t *testing.T, pol Dynamic)
	}{
		{"fresh", func(*testing.T, Dynamic) {}},
		{"add-remove", func(t *testing.T, pol Dynamic) {
			if err := pol.AddApp(0); err != nil {
				t.Fatal(err)
			}
			pol.Reconfigure()
			if _, err := pol.Assignment(); err != nil {
				t.Fatal(err)
			}
			pol.RemoveApp(0)
		}},
	}
	for _, pc := range policies {
		for _, hc := range histories {
			t.Run(pc.name+"/"+hc.name, func(t *testing.T) {
				pol := pc.mk(t)
				hc.run(t, pol)
				snapshot := func() []byte {
					ps, ok := pol.(PolicySnapshotter)
					if !ok {
						return nil
					}
					data, err := ps.PolicySnapshot()
					if err != nil {
						t.Fatal(err)
					}
					return data
				}
				// Plans and maps are valid until the policy's next call,
				// so the first ones are kept as copies.
				first := fmt.Sprint(pol.Reconfigure())
				snap := snapshot()
				held, err := pol.Assignment()
				if err != nil {
					t.Fatal(err)
				}
				held = maps.Clone(held)
				for i := 1; i <= 100; i++ {
					if p := fmt.Sprint(pol.Reconfigure()); p != first {
						t.Fatalf("activation %d: plan %s, first idle activation gave %s", i, p, first)
					}
					m, err := pol.Assignment()
					if err != nil {
						t.Fatal(err)
					}
					if !maps.Equal(m, held) {
						t.Fatalf("activation %d: masks %v, first idle activation gave %v", i, m, held)
					}
					if got := snapshot(); !bytes.Equal(got, snap) {
						t.Fatalf("activation %d: snapshot changed:\n%s\nwas\n%s", i, got, snap)
					}
				}
			})
		}
	}
}

// scribbler wraps a policy as the Dynamic contract lets a policy
// behave: every call first overwrites each mask of the map the policy
// last returned with a one-way mask, as a policy that rewrites its map
// in place would. A kernel that read a map after the policy's next call
// would run under the scribbled masks.
type scribbler struct {
	Dynamic
	last map[int]cat.WayMask
}

func (s *scribbler) scribble() {
	for id := range s.last {
		s.last[id] = cat.MaskRange(0, 1)
	}
}

func (s *scribbler) AddApp(id int) error {
	s.scribble()
	return s.Dynamic.AddApp(id)
}

func (s *scribbler) RemoveApp(id int) {
	s.scribble()
	s.Dynamic.RemoveApp(id)
}

func (s *scribbler) WindowInsns(id int) uint64 {
	s.scribble()
	return s.Dynamic.WindowInsns(id)
}

func (s *scribbler) OnWindow(id int, w pmc.Sample) bool {
	s.scribble()
	return s.Dynamic.OnWindow(id, w)
}

func (s *scribbler) Reconfigure() plan.Plan {
	s.scribble()
	return s.Dynamic.Reconfigure()
}

func (s *scribbler) Assignment() (map[int]cat.WayMask, error) {
	s.scribble()
	m, err := s.Dynamic.Assignment()
	s.last = m
	return m, err
}

// PassiveWindows forwards the wrapped policy's refinement, so a wrapped
// run takes the same kernel path as a plain one.
func (s *scribbler) PassiveWindows() bool {
	p, ok := s.Dynamic.(PassiveWindows)
	return ok && p.PassiveWindows()
}

// TestAssignmentValidUntilNextCall pins the kernel's half of the
// Dynamic contract: it uses a returned map only until the policy's next
// call. Closed and open runs under a scribbler must equal the plain
// runs under every dynamic policy.
func TestAssignmentValidUntilNextCall(t *testing.T) {
	cfg := testConfig()
	cfg.TargetInsns = 300_000_000
	specs := specsOf("xalancbmk06", "lbm06", "povray06", "soplex06")
	scn, err := scenario.NewPoisson("scribble", specs, 8, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lfoc", "dunn", "stock"} {
		t.Run(name, func(t *testing.T) {
			pol := func(wrap bool) Dynamic {
				p := horizonPolicy(t, name, cfg.Plat)
				if wrap {
					return &scribbler{Dynamic: p}
				}
				return p
			}
			closed := func(wrap bool) *Result {
				res, err := RunDynamic(cfg, specs, pol(wrap))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			open := func(wrap bool) *OpenResult {
				res, err := RunOpen(cfg, scn, pol(wrap))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if plain, wrapped := closed(false), closed(true); !reflect.DeepEqual(plain, wrapped) {
				t.Errorf("closed run under a scribbler diverges:\nplain   %+v\nwrapped %+v", plain.Summary, wrapped.Summary)
			}
			if plain, wrapped := open(false), open(true); !reflect.DeepEqual(plain, wrapped) {
				t.Errorf("open run under a scribbler diverges:\nplain   %+v\nwrapped %+v", plain.Summary, wrapped.Summary)
			}
		})
	}
}

func TestEquilCacheExactness(t *testing.T) {
	// The memoized equilibrium path must reproduce the direct path
	// bit-for-bit: same completion times, slowdowns and summary.
	cfg := testConfig()
	specs := specsOf("xalancbmk06", "lbm06", "povray06", "soplex06")
	run := func(records int) *Result {
		ctrl, err := core.NewController(core.DefaultParams(cfg.Plat.Ways), cfg.Plat.WayBytes)
		if err != nil {
			t.Fatal(err)
		}
		k, err := newKernel(cfg, ctrl, specs, scenario.NewClosed(specs, 0))
		if err != nil {
			t.Fatal(err)
		}
		k.memo = equil.New(records)
		if err := k.run(); err != nil {
			t.Fatal(err)
		}
		res, err := buildResult(k)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cached := run(equil.Records)
	direct := run(0)
	if cached.SimSeconds != direct.SimSeconds {
		t.Errorf("SimSeconds diverge: cached %v direct %v", cached.SimSeconds, direct.SimSeconds)
	}
	for i := range cached.Slowdowns {
		if cached.Slowdowns[i] != direct.Slowdowns[i] {
			t.Errorf("app %d slowdown diverges: cached %v direct %v", i, cached.Slowdowns[i], direct.Slowdowns[i])
		}
	}
	if cached.Summary != direct.Summary {
		t.Errorf("summary diverges: cached %+v direct %+v", cached.Summary, direct.Summary)
	}
}

// The equilibrium memo must stay exact under churn too: the cache key
// now spans a varying active set, and a collision between different
// populations would silently corrupt an open run. Eviction must not
// matter either: a memo of two records rotates on almost every store.
func TestOpenEquilCacheExactness(t *testing.T) {
	cfg := testConfig()
	cfg.TargetInsns = 500_000_000
	pool := specsOf("xalancbmk06", "lbm06", "povray06", "soplex06")
	run := func(records int) *OpenResult {
		scn, err := scenario.NewPoisson("exact", pool, 8, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := core.NewController(core.DefaultParams(cfg.Plat.Ways), cfg.Plat.WayBytes)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewOpenMachine(cfg, ctrl, scn.Name(), scn.Initial(), scn.Horizon())
		if err != nil {
			t.Fatal(err)
		}
		m.k.memo = equil.New(records)
		for _, arr := range scn.Arrivals() {
			if err := m.Inject(arr); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Drain(); err != nil {
			t.Fatal(err)
		}
		return m.Result()
	}
	direct := run(0)
	for _, records := range []int{equil.Records, 2} {
		cached := run(records)
		if cached.Series.Fingerprint() != direct.Series.Fingerprint() {
			t.Errorf("%d records: windowed series diverge between memoized and direct equilibrium paths", records)
		}
		if len(cached.Apps) != len(direct.Apps) {
			t.Fatalf("%d records: populations diverge: %d vs %d", records, len(cached.Apps), len(direct.Apps))
		}
		for i := range cached.Apps {
			if cached.Apps[i] != direct.Apps[i] {
				t.Errorf("%d records: app %d diverges: %+v vs %+v", records, i, cached.Apps[i], direct.Apps[i])
			}
		}
	}
}

var updateChurn = flag.Bool("update", false, "rewrite "+churnKeys+" with this build's memo lookups")

// churnKeys holds the memo keys that TestEquilChurnLookups' churn run
// looks up, in order, one per line. The equil package replays them
// (TestRotationKeepsWorkingSet).
const churnKeys = "equil/testdata/churn.txt"

// equilChurn runs an open LFOC churn run whose memo holds records fixed
// points per generation. It returns the result and the keys of the
// run's memo lookups, one line of words per lookup.
func equilChurn(t *testing.T, records int) (*OpenResult, string) {
	t.Helper()
	pool := specsOf("xalancbmk06", "lbm06", "povray06", "soplex06")
	scn, err := scenario.NewPoisson("equil", pool, 6, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Plat:         machine.Small(7, 4),
		TargetInsns:  300_000_000,
		PolicyPeriod: 10 * time.Millisecond,
	}
	m, err := NewOpenMachine(cfg, horizonPolicy(t, "lfoc", cfg.Plat), scn.Name(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.k.memo = equil.New(records)
	for _, arr := range scn.Arrivals() {
		if err := m.Inject(arr); err != nil {
			t.Fatal(err)
		}
	}
	// A loop top that refreshes the equilibrium advances next, so the
	// advance hook sees the key of every lookup.
	var keys strings.Builder
	var lookups uint64
	advance = func(k *kernel, until, maxTime float64) (bool, error) {
		hits, misses := k.memo.Counts()
		if n := hits + misses - lookups; n > 1 {
			t.Fatalf("%d memo lookups between two advances", n)
		} else if n == 1 {
			for i, w := range k.key {
				if i > 0 {
					keys.WriteByte(' ')
				}
				keys.WriteString(strconv.FormatUint(uint64(w), 10))
			}
			keys.WriteByte('\n')
			lookups++
		}
		return k.advanceHorizon(until, maxTime)
	}
	defer func() { advance = (*kernel).advanceHorizon }()
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	return m.Result(), keys.String()
}

// TestEquilChurnLookups pins the equilibrium memo's lookups on an open
// churn run. Eviction changes neither the result nor the lookups, even
// at two records per generation, and the lookups are those recorded in
// churnKeys: one per change of the equilibrium's inputs, with none for
// a mask refresh that changed no mask. A change that moves them on
// purpose rewrites the file with -update.
func TestEquilChurnLookups(t *testing.T) {
	res, keys := equilChurn(t, 1<<30)
	for _, records := range []int{16, 8, 2} {
		r, k := equilChurn(t, records)
		if !reflect.DeepEqual(r, res) {
			t.Errorf("%d records: eviction changed the result", records)
		}
		if k != keys {
			t.Errorf("%d records: eviction changed the lookups", records)
		}
	}
	if *updateChurn {
		if err := os.WriteFile(churnKeys, []byte(keys), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(churnKeys)
	if err != nil {
		t.Fatal(err)
	}
	if got := keys; got != string(want) {
		t.Errorf("the churn run made %d memo lookups that differ from the %d in %s",
			strings.Count(got, "\n"), bytes.Count(want, []byte("\n")), churnKeys)
	}
}

// TestKernelDone pins when a run ends under each rule set: a closed run
// once every slot has runsTarget runs; an open run at its horizon, or
// once the feeder has drained the stream and no arrival is pending,
// queued or running.
func TestKernelDone(t *testing.T) {
	arr := []scenario.Arrival{{Time: 1, Spec: profiles.MustGet("povray06")}}
	withRuns := func(counts ...int) []*kernelApp {
		apps := make([]*kernelApp, len(counts))
		for i, n := range counts {
			apps[i] = &kernelApp{runs: make([]float64, n)}
		}
		return apps
	}
	for _, c := range []struct {
		name string
		k    kernel
		want bool
	}{
		{"open drained and empty", kernel{drained: true}, true},
		{"open not drained", kernel{}, false},
		{"open pending arrival", kernel{drained: true, arrivals: arr}, false},
		{"open arrival delivered", kernel{drained: true, arrivals: arr, arrIdx: 1}, true},
		{"open queued arrival", kernel{drained: true, waitQ: arr}, false},
		{"open active app", kernel{drained: true, nActive: 1}, false},
		{"open at horizon", kernel{doneAt: 2, simTime: 2, nActive: 1}, true},
		{"open before horizon", kernel{doneAt: 2, simTime: 1.9, nActive: 1}, false},
		{"closed short of the target", kernel{runsTarget: 3, apps: withRuns(3, 2)}, false},
		{"closed at the target", kernel{runsTarget: 3, apps: withRuns(4, 3)}, true},
		{"closed ignores the feeder", kernel{runsTarget: 3, drained: true, apps: withRuns(3, 2)}, false},
	} {
		if got := c.k.done(); got != c.want {
			t.Errorf("%s: done = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestRunCompletionRules pins what happens when an app retires its
// quota: it departs an open machine, restarts in a closed run, and
// restarts under a fresh monitoring id when the closed run resets
// identities.
func TestRunCompletionRules(t *testing.T) {
	specs := specsOf("povray06", "lbm06")
	for _, c := range []struct {
		name       string
		closed     *scenario.Closed
		wantActive bool
		wantMonID  int
	}{
		{"open departs", nil, false, 0},
		{"closed restarts", &scenario.Closed{Specs: specs}, true, 0},
		{"closed restarts fresh", &scenario.Closed{Specs: specs, ResetIdentityOnRestart: true}, true, 2},
	} {
		cfg := testConfig()
		k, err := newKernel(cfg, policy.NewStockDynamic(cfg.Plat.Ways), specs, c.closed)
		if err != nil {
			t.Fatal(err)
		}
		a := k.apps[0]
		a.runInsns = a.quota
		if _, err := k.appEvents(a); err != nil {
			t.Fatal(err)
		}
		if len(a.runs) != 1 || a.active != c.wantActive || a.monID != c.wantMonID {
			t.Errorf("%s: %d runs, active %v, monitoring id %d; want 1, %v, %d",
				c.name, len(a.runs), a.active, a.monID, c.wantActive, c.wantMonID)
		}
	}
}
