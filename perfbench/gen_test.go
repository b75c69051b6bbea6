package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestGeneratorDeterministic(t *testing.T) {
	if !reflect.DeepEqual(campaignOrder(7), campaignOrder(7)) ||
		!reflect.DeepEqual(pipelineOrder(7), pipelineOrder(7)) ||
		!reflect.DeepEqual(daemonFresh(7, 1), daemonFresh(7, 1)) {
		t.Fatal("the same seed must give the same inputs")
	}
	if reflect.DeepEqual(daemonFresh(7, 0), daemonFresh(8, 0)) {
		t.Error("different seeds should draw different fresh sequences")
	}
}

// Each client draws fresh specs from its own share of the table, so no
// spec is fresh for one client and already done for the other.
func TestDaemonClientsShareNoFreshSpec(t *testing.T) {
	seen := make(map[int]int)
	for c := 0; c < daemonClients; c++ {
		for _, e := range daemonFresh(3, c) {
			if prev, ok := seen[e]; ok {
				t.Fatalf("entry %d drawn by clients %d and %d", e, prev, c)
			}
			seen[e] = c
		}
	}
	if len(seen) != daemonTable {
		t.Errorf("clients cover %d entries, want the whole table of %d", len(seen), daemonTable)
	}
}

// Every input a run can draw has a recorded reference.
func TestReferencesCoverEveryTableEntry(t *testing.T) {
	rf, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < campaignPool; i++ {
		if _, ok := rf.Campaign[key(campaignBaseSeed(i))]; !ok {
			t.Errorf("campaign pool entry %d has no reference", i)
		}
	}
	for i := 0; i < pipelinePool; i++ {
		if _, ok := rf.Algorithm1[key(pipelineSeed(i))]; !ok {
			t.Errorf("pipeline pool entry %d has no reference", i)
		}
	}
	if len(rf.Daemon) != daemonTable {
		t.Errorf("daemon table has %d references, want %d", len(rf.Daemon), daemonTable)
	}
}

// BENCHMARK.json declares exactly the metrics the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// Every cycle of a client's requests holds exactly freshPerCycle fresh
// ones, so the share does not depend on the seed.
func TestFreshCycleExactShare(t *testing.T) {
	rng := clientRand(5, 0)
	for k := 0; k < 100; k++ {
		c := freshCycle(rng)
		n := 0
		for _, f := range c {
			if f {
				n++
			}
		}
		if len(c) != cycleLen || n != freshPerCycle {
			t.Fatalf("cycle %d: %d of %d fresh, want %d of %d", k, n, len(c), freshPerCycle, cycleLen)
		}
	}
}
