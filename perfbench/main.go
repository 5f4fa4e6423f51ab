// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator's packages for a fixed time, checks
// that every op's outputs are correct, and prints the end-to-end
// metrics (-trace 0) or the per-layer metrics (-trace 1) as the last
// line of its output. README.md in this directory describes the
// workloads and metrics; run.sh builds and runs it.
//
// Every op runs in a child process of its own, so its peak RSS is its
// own. The parent times the reference task (ref.go) between ops, runs
// ops until the time is up, checks that they agree and reports medians.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// setupReps is how many times an op assembles its workload; setup_s is
// the median, and the last assembly is the one that runs.
const setupReps = 11

// budget bounds a whole run: no op starts after it has passed, and a
// child still running at hardBudget is killed.
const (
	budget     = 120 * time.Second
	hardBudget = 170 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload to run: lend, fleet or chaos")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long to keep starting ops")
	traceFlag := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and scratch files")
	op := flag.String("op", "", "internal: run a single op (untraced or traced) and print its result")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fail(2, "unknown workload %q (have lend, fleet, chaos)", *name)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fail(2, "-trace must be 0 or 1")
	}
	if w.Full.Workers > runtime.NumCPU() {
		fail(2, "%s needs %d fleet workers but nproc is %d; refusing to oversubscribe", w.Name, w.Full.Workers, runtime.NumCPU())
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(1, "%v", err)
	}
	if *op != "" {
		runtime.GOMAXPROCS(w.Full.procs())
		res, err := runOp(w, w.Full, *seed, *op == "traced", *out)
		if err != nil {
			fail(1, "%v", err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fail(1, "%v", err)
		}
		return
	}

	printHost(w)
	runtime.GOMAXPROCS(w.Full.procs())
	results, failed := runOps(w, *seed, *seconds, *traceFlag == 1, *out)
	rep := summarize(w, results, *traceFlag == 1)
	rep.Failed += failed
	rep.Attempted += failed
	rep.Correct = rep.Correct && failed == 0
	line, err := json.Marshal(rep)
	if err != nil {
		fail(1, "%v", err)
	}
	fmt.Println(string(line))
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(code)
}

// printHost records the host context the run measured on; gomaxprocs
// is the ops' setting.
func printHost(w Workload) {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	host := map[string]any{
		"workload":      w.Name,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    w.Full.procs(),
		"go":            runtime.Version(),
		"gogc":          gogc,
		"fleet_workers": fleetWorkers,
	}
	line, _ := json.Marshal(map[string]any{"host": host}) // a map of strings and ints always marshals
	fmt.Println(string(line))
}

// opResult is one op's measurements, passed from child to parent.
type opResult struct {
	Traced     bool
	Setup      float64 // median seconds over setupReps assemblies
	Wall, CPU  float64 // seconds
	Ref        float64 // mean reference-task seconds just before and after the op, filled in by the parent
	Bytes      uint64
	Mallocs    uint64
	HeapLive   uint64
	RSSKB      int64 // filled in by the parent
	Events     uint64
	Phases     map[string]phaseStat
	Modeled    map[string]float64
	Layers     map[string]float64 `json:",omitempty"`
	Violations []string           `json:",omitempty"`
}

// runOp assembles the workload setupReps times, runs the last assembly
// once and measures it. A traced op installs a profile on every engine
// and a timing wrapper on every fleet member; an untraced op installs
// neither.
func runOp(w Workload, shape Shape, seed int64, traced bool, dir string) (*opResult, error) {
	res := &opResult{Traced: traced}
	opStart := clock()
	rec := newRecorder(traced)
	var pr *probe
	var inst *Instance
	setups := make([]float64, setupReps)
	for i := range setups {
		pr = &probe{}
		o := Observer{Phase: rec.phase, Dir: dir}
		if traced {
			o = pr.observer(rec, dir)
		}
		inst = nil
		runtime.GC()
		start := clock()
		inst = w.Build(seed, shape, o)
		setups[i] = float64(clock()-start) / 1e9
		rec.span("setup", "op", 0, start, clock())
	}
	res.Setup = median(setups)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	start := clock()
	runErr := inst.Run()
	res.Wall = float64(clock()-start) / 1e9
	res.CPU = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	res.Bytes = after.TotalAlloc - before.TotalAlloc
	res.Mallocs = after.Mallocs - before.Mallocs
	res.Phases = rec.phases
	if inst.Verify != nil && runErr == nil {
		runErr = inst.Verify()
	}

	out := inst.Outcome()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	res.HeapLive = live.HeapAlloc
	runtime.KeepAlive(inst)

	res.Events = out.Events
	res.Modeled = modeled(out)
	if runErr != nil {
		res.Violations = append(res.Violations, runErr.Error())
	}
	res.Violations = append(res.Violations, check(out)...)
	if traced {
		res.Layers = layerMetrics(out, pr, rec, shape.Workers)
		var dispatched uint64
		for _, c := range pr.classes() {
			dispatched += c.Count
		}
		if dispatched != out.Events {
			res.Violations = append(res.Violations, fmt.Sprintf("per-class dispatches sum to %d, engines fired %d", dispatched, out.Events))
		}
		pr.recordAdvance(rec, out.Layers.Placement.Scans)
		rec.span("op", "", 0, opStart, clock())
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", w.Name, seed))
		if err := writeSpans(path, rec.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// check is the per-op correctness gate: the run settled every request
// with conservation intact, and every replayed trace audited clean.
func check(out *Outcome) []string {
	var bad []string
	for _, c := range out.Conservation {
		bad = append(bad, "request conservation: "+c)
	}
	if out.Violations != 0 {
		bad = append(bad, fmt.Sprintf("audit: %d violations over %d traces", out.Violations, out.Audited))
	}
	if out.Issued == 0 || out.PingRTT.Count() == 0 {
		bad = append(bad, "op issued no startups or pings")
	}
	return bad
}

// modeled extracts the simulated-time results of an op.
func modeled(out *Outcome) map[string]float64 {
	return map[string]float64{
		"ping_rtt_p50_us":   histQuantile(out.PingRTT, 0.5) / 1e3,
		"ping_rtt_p99_us":   histQuantile(out.PingRTT, 0.99) / 1e3,
		"vm_startup_p50_ms": quantile(out.Startups, 0.5) / 1e6,
		"vm_startup_p90_ms": quantile(out.Startups, 0.9) / 1e6,
		"vm_ok_pct":         100 * float64(len(out.Startups)) / float64(max(out.Issued, 1)),
	}
}

// quantile is the q-quantile of exact samples, interpolating linearly
// between order statistics.
func quantile(d []sim.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]sim.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return float64(s[lo])
	}
	return float64(s[lo]) + (pos-float64(lo))*float64(s[lo+1]-s[lo])
}

// histQuantile is the q-quantile of a log-linear histogram, interpolated
// inside the bucket that holds it rather than snapped to the bucket's
// low edge, so a seed's tail moves the figure smoothly.
func histQuantile(h *metrics.Histogram, q float64) float64 {
	target := q * float64(h.Count())
	var cum float64
	for _, b := range h.Buckets() {
		next := cum + float64(b.Count)
		if next >= target {
			frac := (target - cum) / float64(b.Count)
			return float64(b.Low) + frac*bucketWidth(b.Low)
		}
		cum = next
	}
	return float64(h.Max())
}

// bucketWidth is the width of the histogram bucket starting at low:
// unit buckets below 32 ns, then 16 linear sub-buckets per octave.
func bucketWidth(low sim.Duration) float64 {
	if low < 32 {
		return 1
	}
	octave := 0
	for v := low >> 5; v > 0; v >>= 1 {
		octave++
	}
	return float64(int64(1) << octave)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runOps runs child ops until the time is up: untraced ops for -trace
// 0, alternating untraced and traced ops for -trace 1. It returns the
// results of the ops that finished and how many did not (0 or 1: it stops
// at the first op that fails to finish).
func runOps(w Workload, seed int64, seconds float64, traced bool, dir string) ([]*opResult, int) {
	self, err := os.Executable()
	if err != nil {
		fail(1, "%v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardBudget)
	defer cancel()
	minOps := 3
	if traced {
		minOps = 2
	}
	procs := w.Full.procs()
	refSeconds(procs) // warm-up: the first run grows the heap
	before := refSeconds(procs)
	start := time.Now()
	var results []*opResult
	failed := 0
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if elapsed >= budget || (i >= minOps && elapsed.Seconds() >= seconds) {
			break
		}
		mode := "untraced"
		if traced && i%2 == 1 {
			mode = "traced"
		}
		res, err := spawn(ctx, self, w, seed, mode, dir)
		if err != nil {
			// A failed op fails the run; starting more would only repeat it.
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d: %v\n", mode, i, err)
			failed++
			break
		}
		after := refSeconds(procs)
		res.Ref = (before + after) / 2
		before = after
		fmt.Fprintf(os.Stderr, "perfbench: %s %s op %d: wall %.3fs ref %.3fs events %d\n", w.Name, mode, i, res.Wall, res.Ref, res.Events)
		results = append(results, res)
	}
	return results, failed
}

// spawn runs one op in a child process and waits for it.
func spawn(ctx context.Context, self string, w Workload, seed int64, mode, dir string) (*opResult, error) {
	cmd := exec.CommandContext(ctx, self, "-op", mode, "-workload", w.Name,
		"-seed", strconv.FormatInt(seed, 10), "-out", dir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var res opResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("decode op result: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("no rusage for op process")
	}
	res.RSSKB = ru.Maxrss
	return &res, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summarize checks the ops against each other and reduces them to the
// run's metrics: medians of host measurements, and the modeled results,
// which every op must have reproduced exactly.
func summarize(w Workload, results []*opResult, traced bool) *report {
	rep := &report{Correct: len(results) > 0, Attempted: len(results), Metrics: map[string]metric{}}
	var plain, withTrace []*opResult
	for _, r := range results {
		if len(r.Violations) > 0 {
			rep.Failed++
			rep.Correct = false
			for _, v := range r.Violations {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.Name, v)
			}
		}
		if r.Traced {
			withTrace = append(withTrace, r)
		} else {
			plain = append(plain, r)
		}
	}
	// Every op ran the same seed, traced or not, so every op must agree
	// on the event count and the modeled results: observing never
	// changes the result.
	for _, r := range results[min(1, len(results)):] {
		if r.Events != results[0].Events || !reflect.DeepEqual(r.Modeled, results[0].Modeled) {
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: ops disagree: events %d vs %d, modeled %v vs %v\n",
				w.Name, r.Events, results[0].Events, r.Modeled, results[0].Modeled)
		}
	}
	if len(plain) == 0 || (traced && len(withTrace) == 0) {
		rep.Correct = false
		return rep
	}

	set := func(name string, v float64) {
		rep.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	med := func(ops []*opResult, f func(*opResult) float64) float64 {
		vals := make([]float64, len(ops))
		for i, r := range ops {
			vals[i] = f(r)
		}
		return median(vals)
	}
	if !traced {
		// Host time per op in reference-task units; the raw seconds go
		// on the line before, for the record.
		raw := map[string]float64{
			"wall_s": med(plain, func(r *opResult) float64 { return r.Wall }),
			"cpu_s":  med(plain, func(r *opResult) float64 { return r.CPU }),
			"ref_s":  med(plain, func(r *opResult) float64 { return r.Ref }),
		}
		line, _ := json.Marshal(map[string]any{"raw": raw}) // a map of floats always marshals
		fmt.Println(string(line))
		set("wall_ref", med(plain, func(r *opResult) float64 { return r.Wall / r.Ref }))
		set("cpu_ref", med(plain, func(r *opResult) float64 { return r.CPU / r.Ref }))
		set("setup_s", med(plain, func(r *opResult) float64 { return r.Setup }))
		set("alloc_mb", med(plain, func(r *opResult) float64 { return float64(r.Bytes) / (1 << 20) }))
		set("allocs_m", med(plain, func(r *opResult) float64 { return float64(r.Mallocs) / 1e6 }))
		set("heap_live_mb", med(plain, func(r *opResult) float64 { return float64(r.HeapLive) / (1 << 20) }))
		set("rss_peak_mb", med(plain, func(r *opResult) float64 { return float64(r.RSSKB) / 1024 }))
		for name, v := range results[0].Modeled {
			set(name, v)
		}
		return rep
	}

	for _, d := range perLayer {
		name := d.Name
		set(name, med(withTrace, func(r *opResult) float64 { return r.Layers[name] }))
	}
	// The engine's rate and allocation costs come from the untraced ops,
	// whose engines carry no profile: the sim phases are run and tail.
	simPhase := func(r *opResult) phaseStat {
		run, tail := r.Phases["run"], r.Phases["tail"]
		return phaseStat{Wall: run.Wall + tail.Wall, Mallocs: run.Mallocs + tail.Mallocs, Bytes: run.Bytes + tail.Bytes}
	}
	events := float64(plain[0].Events)
	set("sim.events_per_s", events/med(plain, func(r *opResult) float64 { return simPhase(r).Wall }))
	set("sim.allocs_per_event", med(plain, func(r *opResult) float64 { return float64(simPhase(r).Mallocs) })/events)
	set("sim.bytes_per_event", med(plain, func(r *opResult) float64 { return float64(simPhase(r).Bytes) })/events)
	set("bench.trace_overhead",
		med(withTrace, func(r *opResult) float64 { return r.Wall })/med(plain, func(r *opResult) float64 { return r.Wall }))
	return rep
}

// unitOf returns the catalogue unit of a metric.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("perfbench: metric missing from the catalogue: " + name)
}

// median is the middle value (the mean of the middle two for an even
// count); NaN for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
