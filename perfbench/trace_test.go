package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: union [10,60]
		{Name: "c", Start: 80, End: 120, Parent: 0}, // clipped to the parent: [80,100]
		{Name: "grandchild", Start: 12, End: 38, Parent: 1},
	}
	self := selfTimes(spans)
	want := []time.Duration{30, 4, 30, 40, 26}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], w)
		}
	}
}

func TestSelfTimeNoChildren(t *testing.T) {
	self := selfTimes([]span{{Name: "leaf", Start: 5, End: 25, Parent: -1}})
	if self[0] != 20 {
		t.Errorf("leaf self time = %v, want 20ns", self[0])
	}
}

func TestSumByName(t *testing.T) {
	spans := []span{
		{Name: "p", Start: 0, End: 10, Parent: -1},
		{Name: "k", Start: 0, End: 4, Parent: 0},
		{Name: "p", Start: 20, End: 40, Parent: -1},
		{Name: "k", Start: 25, End: 35, Parent: 2},
	}
	by := sumByName(spans)
	if p := by["p"]; p.n != 2 || p.total != 30 || p.own != 16 {
		t.Errorf("p = %+v, want n=2 total=30ns own=16ns", *p)
	}
	if got := meanMs(by, "k"); got != 7e-6 {
		t.Errorf("meanMs(k) = %v, want 7e-6", got)
	}
	if got := meanMs(by, "missing"); got != 0 {
		t.Errorf("meanMs(missing) = %v, want 0", got)
	}
}
