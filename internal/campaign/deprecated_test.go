package campaign

import (
	"context"
	"reflect"
	"sort"
	"testing"
)

// TestBatchExecutorRecordEquivalence keeps the deprecated batch names
// working for the callers that still use them: NewBatchExecutor returns
// the ordinary executor and no group executor, and Runner never calls an
// ExecuteGroup it is given, so the records match a NewExecutor run.
func TestBatchExecutorRecordEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("real executor skipped in -short")
	}
	spec := Spec{
		Name:      "batch-equiv",
		Seed:      21,
		Missions:  []MissionSpec{{Kind: "line", Size: 40, Alt: 10}},
		Variables: []string{"CMD.Roll", "PIDR.INTEG"},
		Goals:     []string{GoalDeviation},
		Defenses:  []string{DefenseNone},
		Trials:    3,
		Episodes:  2,
		MaxSteps:  6,
	}
	exec, group := NewBatchExecutor()
	if group != nil {
		t.Fatal("NewBatchExecutor returned a group executor")
	}
	called := false
	legacy := &Runner{Workers: 2, Execute: exec, ExecuteGroup: func(context.Context, []Job) ([]Metrics, error) {
		called = true
		return nil, nil
	}}
	got := sortedOKRecords(t, legacy, spec)
	if called {
		t.Fatal("Runner called ExecuteGroup")
	}
	want := sortedOKRecords(t, &Runner{Workers: 2, Execute: NewExecutor()}, spec)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records differ:\nlegacy: %+v\nscalar: %+v", got, want)
	}
}

// sortedOKRecords runs the spec through a runner and returns its records
// sorted by key, failing on any non-OK status.
func sortedOKRecords(t *testing.T, r *Runner, spec Spec) []Record {
	t.Helper()
	store, path := openTempStore(t)
	stats, err := r.Run(context.Background(), spec, store)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OK != stats.Total {
		t.Fatalf("%d/%d jobs ok (errors=%d panics=%d)", stats.OK, stats.Total, stats.Errors, stats.Panics)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	recs := st.Records()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	return recs
}
