package scenario

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestNewRejectsUnknownModeAndBaselineLayers(t *testing.T) {
	if _, err := New(Spec{Mode: "bogus"}); err == nil || err.Error() != `unknown mode "bogus"` {
		t.Fatalf("unknown mode: err = %v", err)
	}
	for _, mode := range []Mode{ModeStatic, ModeType2} {
		for _, c := range []struct {
			flag string
			spec Spec
		}{
			{"-faults", Spec{Faults: faults.DefaultSpec()}},
			{"-recover", Spec{Recover: true}},
			{"-overload", Spec{Overload: true}},
		} {
			c.spec.Mode = mode
			_, err := New(c.spec)
			if err == nil || !strings.HasPrefix(err.Error(), c.flag+" requires a Tai Chi scheduler mode") {
				t.Errorf("%s with %s: err = %v", mode, c.flag, err)
			}
		}
		n, err := New(Spec{Mode: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if n.TC != nil || n.Inj != nil || !n.Healthy() {
			t.Errorf("%s: TC=%v Inj=%v Healthy=%v, want nil, nil, true", mode, n.TC, n.Inj, n.Healthy())
		}
	}
	for _, mode := range []Mode{ModeTaiChi, ModeType1, ModeNaive} {
		n, err := New(Spec{Mode: mode, Faults: faults.DefaultSpec(), Recover: true, Overload: true})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if n.TC == nil || n.Inj == nil || !n.Inj.Attached() {
			t.Errorf("%s: Tai Chi host without an attached injector", mode)
		}
	}
}

// TestZeroSpecMatchesBareHost pins the zero-fault identity New relies on
// when it attaches an injector to every Tai Chi host: a zero-spec node
// replays a bare core.NewDefault node event for event.
func TestZeroSpecMatchesBareHost(t *testing.T) {
	const seed, until = 5, sim.Time(300 * sim.Millisecond)
	bare := core.NewDefault(seed)
	mgr := cluster.NewManager(bare, cluster.DefaultConfig(2))
	mgr.Start()
	bare.Run(until)

	cfg := cluster.DefaultConfig(2)
	n := Must(New(Spec{Seed: seed, Mode: ModeTaiChi, VMs: &cfg}))
	n.Mgr.Start()
	n.Node.Run(until)

	if got, want := n.Node.Engine.Fired(), bare.Engine().Fired(); got != want {
		t.Fatalf("zero-spec node fired %d events, bare host %d", got, want)
	}
	if got, want := n.Mgr.Outcomes.String(), mgr.Outcomes.String(); got != want {
		t.Fatalf("outcomes %q, bare host %q", got, want)
	}
}

// TestCrashSpecCrashesManagerJobs checks that New routes the manager's
// provisioning programs through the injector: with only CP crashes
// armed and no CP tasks of its own, every crash lands on a manager job.
func TestCrashSpecCrashesManagerJobs(t *testing.T) {
	cfg := cluster.DefaultConfig(1)
	cfg.VMs = 16
	cfg.VMLifetime = 0
	cfg.MonitorsPerDensity = 0
	cfg.Retry = cluster.DefaultRetryPolicy()
	n := Must(New(Spec{Seed: 3, Mode: ModeTaiChi, Faults: faults.Spec{CPCrashRate: 0.05}, VMs: &cfg}))
	n.Mgr.Start()
	n.Node.Run(sim.Time(3 * sim.Second))
	if crashes := n.Inj.Counts.Counter("cp-crash").Value(); crashes == 0 {
		t.Fatal("no CP crash injected into manager jobs")
	}
	if n.Mgr.Retried() == 0 {
		t.Fatal("crashed provisioning jobs caused no retries")
	}
}

// runUntil steps the node in 1 ms chunks until cond holds, failing the
// test if it never does within the limit.
func runUntil(t *testing.T, n *Node, limit sim.Duration, cond func() bool) {
	t.Helper()
	for n.Node.Now() < sim.Time(limit) {
		n.Node.Run(n.Node.Now().Add(sim.Millisecond))
		if cond() {
			return
		}
	}
	t.Fatalf("condition not reached within %v", limit)
}

func TestHealthyFalseInStaticFallback(t *testing.T) {
	bg := workload.DefaultBackground(0.3)
	n := Must(New(Spec{
		Seed: 11, Mode: ModeTaiChi, Background: &bg,
		Faults: faults.Spec{ExitStallRate: 1, ExitStallMean: sim.Millisecond},
	}))
	if !n.Healthy() {
		t.Fatal("fresh node reports unhealthy")
	}
	cp := controlplane.DefaultSynthCP()
	for i := 0; i < 8; i++ {
		n.Host.SpawnCP("cp", controlplane.SynthCP(cp, n.Node.Stream("cp")))
	}
	runUntil(t, n, 2*sim.Second, func() bool { return n.TC.Sched.DefenseMode() == core.ModeStatic })
	if n.Healthy() {
		t.Fatal("Healthy() true in static fallback")
	}
}

func TestHealthyFalseWithBreakerOpen(t *testing.T) {
	cfg := cluster.DefaultConfig(4)
	cfg.VMLifetime = 0
	n := Must(New(Spec{Seed: 2, Mode: ModeTaiChi, Faults: faults.Spec{ProvisionNackRate: 1}, VMs: &cfg}))
	n.Mgr.Start()
	runUntil(t, n, 2*sim.Second, func() bool {
		return n.TC.Breaker != nil && n.TC.Breaker.State() == controlplane.BreakerOpen
	})
	if n.TC.Sched.DefenseMode() == core.ModeStatic {
		t.Fatal("node fell back to static; the breaker alone is not under test")
	}
	if n.Healthy() {
		t.Fatal("Healthy() true with the breaker open")
	}
}

// TestOverloadLevelTracksLadder checks the rung New hands the admission
// gate: it follows Sched.OverloadState through a DP spike, and reads 0
// on a host without the ladder.
func TestOverloadLevelTracksLadder(t *testing.T) {
	bg := workload.DefaultBackground(1.2)
	n := Must(New(Spec{Seed: 4, Mode: ModeTaiChi, Overload: true, Background: &bg}))
	peak := 0
	for n.Node.Now() < sim.Time(600*sim.Millisecond) {
		n.Node.Run(n.Node.Now().Add(5 * sim.Millisecond))
		lvl := n.OverloadLevel()
		if want := int(n.TC.Sched.OverloadState()); lvl != want {
			t.Fatalf("at %v: OverloadLevel %d, ladder rung %d", n.Node.Now(), lvl, want)
		}
		if lvl > peak {
			peak = lvl
		}
	}
	if peak == 0 {
		t.Fatal("ladder never left normal under a 120% DP spike")
	}
	if lvl := Must(New(Spec{Mode: ModeStatic})).OverloadLevel(); lvl != 0 {
		t.Fatalf("static host OverloadLevel %d, want 0", lvl)
	}
}
