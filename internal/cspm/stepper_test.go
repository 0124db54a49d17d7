package cspm

import (
	"math/rand"
	"testing"
)

// TestNewStepperValidates pins the Validate call in NewStepper: every
// rejection path must panic rather than seed a broken search.
func TestNewStepperValidates(t *testing.T) {
	g := fig1(t)
	for _, opts := range []Options{
		{Workers: -1},
		{MaxIterations: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewStepper accepted invalid %+v", opts)
				}
			}()
			NewStepper(g, opts)
		}()
	}
	// And the zero value still constructs.
	if s := NewStepper(g, Options{}); s == nil {
		t.Fatal("NewStepper rejected the zero options")
	}
}

// TestStepperHonoursMaxIterations pins the iteration cap: a capped Stepper
// applies exactly the merges a capped MineWithOptions run does, then stops.
func TestStepperHonoursMaxIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomGraph(rng, 40, 6, 0.14, 0.4)
	const limit = 3
	if full := MineWithOptions(g, Options{CollectStats: true}); full.Iterations <= limit {
		t.Fatalf("graph allows only %d merges; the cap would not bind", full.Iterations)
	}
	want := MineWithOptions(g, Options{MaxIterations: limit, CollectStats: true})
	if want.Iterations != limit {
		t.Fatalf("capped Mine did %d merges, want %d", want.Iterations, limit)
	}

	s := NewStepper(g, Options{MaxIterations: limit})
	steps := 0
	for {
		if _, ok := s.Step(); !ok {
			break
		}
		steps++
	}
	if steps != limit {
		t.Fatalf("capped stepper did %d merges, want %d", steps, limit)
	}
	if !s.Done() {
		t.Fatal("Done false after the cap")
	}
	if got := s.Snapshot(); got.FinalDL != want.FinalDL || got.Iterations != want.Iterations {
		t.Fatalf("stepper FinalDL %v after %d merges, capped Mine %v after %d",
			got.FinalDL, got.Iterations, want.FinalDL, want.Iterations)
	}
}
