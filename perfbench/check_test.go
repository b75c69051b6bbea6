package main

import (
	"bufio"
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"
)

func encode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := canonical(w, reflect.ValueOf(v)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type inner struct {
	Names []string
	n     int
}

type outer struct {
	X     float64
	Ptr   *inner
	Cells map[string][]float64
}

// The output digest must see every number, including the last bit of a
// float and unexported fields, and must not depend on map order.
func TestCanonicalEncoding(t *testing.T) {
	base := outer{X: 1.5, Ptr: &inner{Names: []string{"a", "b"}, n: 2}, Cells: map[string][]float64{"p": {1, 2}, "q": {3}}}
	same := outer{X: 1.5, Ptr: &inner{Names: []string{"a", "b"}, n: 2}, Cells: map[string][]float64{"q": {3}, "p": {1, 2}}}
	if !bytes.Equal(encode(t, base), encode(t, same)) {
		t.Fatal("equal values encode differently")
	}
	for name, v := range map[string]outer{
		"last float bit":   {X: math.Nextafter(1.5, 2), Ptr: base.Ptr, Cells: base.Cells},
		"unexported field": {X: 1.5, Ptr: &inner{Names: []string{"a", "b"}, n: 3}, Cells: base.Cells},
		"nil pointer":      {X: 1.5, Cells: base.Cells},
		"moved element":    {X: 1.5, Ptr: base.Ptr, Cells: map[string][]float64{"p": {1}, "q": {2, 3}}},
	} {
		if bytes.Equal(encode(t, base), encode(t, v)) {
			t.Errorf("%s: encodings collide", name)
		}
	}
	if bytes.Equal(encode(t, inner{Names: nil}), encode(t, inner{Names: []string{}})) {
		t.Error("nil and empty slices encode alike")
	}
}

// setup_s times set-ups only: a teardown runs after its rep's clock has
// stopped, every rep but the last is torn down, and the last is kept.
func TestMedianSetupExcludesTeardown(t *testing.T) {
	var setups, teardowns int
	lastKept := false
	got, err := medianSetup(3, func(last bool) (func() error, error) {
		setups++
		if last {
			lastKept = true
			return nil, nil
		}
		return func() error {
			teardowns++
			time.Sleep(50 * time.Millisecond)
			return nil
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if setups != 4 || teardowns != 3 || !lastKept {
		t.Errorf("%d set-ups, %d teardowns, last kept %v; want 4 (one untimed), 3, true", setups, teardowns, lastKept)
	}
	if got >= 0.05 {
		t.Errorf("setup median %.3f s includes the teardown's 50 ms", got)
	}
}
