package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPerfScenariosPinned runs every pinned perf scenario once and
// compares its simulation side — engine events, simulated time and the
// metrics snapshot — to the goldens in testdata/: events.txt holds one
// "name events=N simulated_ns=M" line per scenario, <name>.json the
// snapshot. These are the seed-pinned events_per_op figures of
// BENCH_taichi.json; a change that moves one changes what the bench
// measures. Regenerate with
//
//	taichi-bench -benchout /tmp/b.json -iters 1 -metrics-dir /tmp/snaps
//
// copying the .json snapshots and the events/simulated fields over.
func TestPerfScenariosPinned(t *testing.T) {
	pins, err := os.ReadFile(filepath.Join("testdata", "events.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(pins)), "\n") {
		name, rest, _ := strings.Cut(line, " ")
		want[name] = rest
	}
	if len(want) != len(perfScenarios) {
		t.Fatalf("events.txt pins %d scenarios, the harness has %d", len(want), len(perfScenarios))
	}
	for _, s := range perfScenarios {
		events, simulated, snap := s.run()
		if got := fmt.Sprintf("events=%d simulated_ns=%d", events, int64(simulated)); got != want[s.name] {
			t.Errorf("%s: %s, pinned %s", s.name, got, want[s.name])
		}
		golden, err := os.ReadFile(filepath.Join("testdata", s.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if got := snap.JSON(); !bytes.Equal(got, golden) {
			t.Errorf("%s: snapshot drifted from testdata/%s.json:\n--- golden\n%s--- got\n%s", s.name, s.name, golden, got)
		}
	}
}
