package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"syscall"
	"testing"

	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/sim"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// runTiny runs one tiny-scale op in-process, after the reference task,
// and fills in what the parent would: the reference seconds and the peak
// RSS, here the test process's own.
func runTiny(t *testing.T, w Workload, seed int64, traced bool) *opResult {
	t.Helper()
	ref := refSeconds(w.Tiny.procs())
	res, err := runOp(w, w.Tiny, seed, traced, t.TempDir())
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", w.Name, seed, traced, err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("%s seed %d traced=%v failed its gate: %v", w.Name, seed, traced, res.Violations)
	}
	res.Ref = ref
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	res.RSSKB = ru.Maxrss
	return res
}

// TestEveryMetricEmittedOnce runs each workload untraced and traced at
// tiny scale and checks the run reports exactly the catalogue's
// metrics, each with its unit, and passes the correctness gate,
// including traced-versus-untraced agreement. End-to-end metrics must be
// finite and never 0.
func TestEveryMetricEmittedOnce(t *testing.T) {
	for _, w := range Workloads {
		plain := runTiny(t, w, 1, false)
		traced := runTiny(t, w, 1, true)
		for _, tc := range []struct {
			traced bool
			ops    []*opResult
			defs   []metricDef
		}{
			{false, []*opResult{plain}, endToEnd},
			{true, []*opResult{plain, traced}, perLayer},
		} {
			rep := summarize(w, tc.ops, tc.traced)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != len(tc.ops) {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, tc.traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(tc.defs) {
				t.Errorf("%s traced=%v: %d metrics, catalogue has %d", w.Name, tc.traced, len(rep.Metrics), len(tc.defs))
			}
			for _, d := range tc.defs {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, tc.traced, d.Name, m, d.Unit)
				}
				if !tc.traced && !(m.Value > 0 && !math.IsInf(m.Value, 0)) {
					t.Errorf("%s: end-to-end metric %s = %v, want finite and above 0", w.Name, d.Name, m.Value)
				}
			}
		}
		if plain.Events != traced.Events || !reflect.DeepEqual(plain.Modeled, traced.Modeled) {
			t.Errorf("%s: tracing changed the result: events %d vs %d", w.Name, plain.Events, traced.Events)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json in step with the
// workloads and metrics the command runs and emits, and every name legal.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the catalogue:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the catalogue")
	}
	if len(spec.Workloads) != len(Workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(Workloads))
	}
	for i, w := range spec.Workloads {
		if i >= len(Workloads) || Workloads[i].Name != w.Name || Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q)", i, w.Name, w.Why)
		}
	}
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !metricName.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is illegal or repeated", d.Name)
			}
			seen[d.Name] = true
		}
	}
}

// TestSeedDeterminism checks that a seed repeats its event count exactly
// and that another seed changes it.
func TestSeedDeterminism(t *testing.T) {
	w, _ := workloadByName("lend")
	a, b, c := runTiny(t, w, 1, false), runTiny(t, w, 1, false), runTiny(t, w, 2, false)
	if a.Events != b.Events || !reflect.DeepEqual(a.Modeled, b.Modeled) {
		t.Errorf("seed 1 ran twice: events %d vs %d", a.Events, b.Events)
	}
	if a.Events == c.Events {
		t.Errorf("seeds 1 and 2 both fired %d events", a.Events)
	}
}

// TestTimedMemberIsTransparent checks that the fleet's timing wrapper
// changes nothing the placer decides: the placer trace and Stats of a
// wrapped fleet equal an unwrapped fleet's, at one and two workers.
func TestTimedMemberIsTransparent(t *testing.T) {
	w, _ := workloadByName("fleet")
	var want *Outcome
	for _, workers := range []int{1, 2} {
		shape := w.Tiny
		shape.Workers = workers
		for _, wrapped := range []bool{false, true} {
			var o Observer
			var timed []*timedMember
			if wrapped {
				o.Wrap = func(idx int, m placement.Member) placement.Member {
					tm := &timedMember{Member: m}
					timed = append(timed, tm)
					return tm
				}
			}
			inst := w.Build(7, shape, o)
			if err := inst.Run(); err != nil {
				t.Fatal(err)
			}
			got := inst.Outcome()
			if len(got.PlacerTrace) == 0 || got.Layers.Placement.Scans == 0 {
				t.Fatalf("workers=%d wrapped=%v: placer recorded nothing", workers, wrapped)
			}
			for i, tm := range timed {
				if len(tm.calls) < got.Layers.Placement.Scans {
					t.Errorf("member %d: %d timed calls for %d scans", i, len(tm.calls), got.Layers.Placement.Scans)
				}
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got.PlacerTrace, want.PlacerTrace) || got.Layers.Placement != want.Layers.Placement {
				t.Errorf("workers=%d wrapped=%v: placer trace or Stats differ from the unwrapped single-worker fleet", workers, wrapped)
			}
			if got.Events != want.Events {
				t.Errorf("workers=%d wrapped=%v: events %d, want %d", workers, wrapped, got.Events, want.Events)
			}
		}
	}
}

// TestQuantiles pins the quantile helpers, and bucketWidth against the
// histogram's real bucket layout.
func TestQuantiles(t *testing.T) {
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
	if got := quantile([]sim.Duration{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("quantile = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	lowOf := func(v sim.Duration) sim.Duration {
		h := metrics.NewHistogram("probe")
		h.Record(v)
		return h.Buckets()[0].Low
	}
	for _, v := range []sim.Duration{0, 5, 31, 32, 33, 63, 64, 1000, 32767, 32768, 589823, 1 << 40} {
		low := lowOf(v)
		width := sim.Duration(bucketWidth(low))
		if v < low || v >= low+width || lowOf(low+width-1) != low || lowOf(low+width) != low+width {
			t.Errorf("value %d: bucket [%d, %d) does not match the histogram", v, low, low+width)
		}
	}
}
