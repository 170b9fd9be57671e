package qilabel

// Tests for the context-aware entry point: cooperative cancellation at
// every pipeline stage, parallel/serial output equivalence across the
// whole builtin corpus, configuration validation and the stage observer.

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestParallelMatchesSerial is the determinism contract behind excluding
// Parallelism from the fingerprint: for every builtin domain, with and
// without the matcher, a parallel run must produce byte-identical output
// to the serial run — same labels, class, tree rendering and cache key.
func TestParallelMatchesSerial(t *testing.T) {
	for _, domain := range BuiltinDomains() {
		for _, matcher := range []bool{false, true} {
			name := domain
			if matcher {
				name += "/matcher"
			}
			t.Run(name, func(t *testing.T) {
				sources, err := BuiltinDomain(domain)
				if err != nil {
					t.Fatal(err)
				}
				base := []Option{WithParallelism(1)}
				par := []Option{WithParallelism(8)}
				if matcher {
					base = append(base, WithMatcher())
					par = append(par, WithMatcher())
				}
				serial, err := Integrate(sources, base...)
				if err != nil {
					t.Fatal(err)
				}
				parallel, err := Integrate(sources, par...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(serial.Labels, parallel.Labels) {
					t.Errorf("labels diverge:\nserial:   %v\nparallel: %v", serial.Labels, parallel.Labels)
				}
				if serial.Class != parallel.Class {
					t.Errorf("class diverges: serial %s, parallel %s", serial.Class, parallel.Class)
				}
				if serial.Tree.String() != parallel.Tree.String() {
					t.Errorf("tree rendering diverges:\nserial:\n%s\nparallel:\n%s", serial.Tree, parallel.Tree)
				}
				if k1, k2 := CacheKey(sources, base...), CacheKey(sources, par...); k1 != k2 {
					t.Errorf("cache key depends on parallelism: %q vs %q", k1, k2)
				}
			})
		}
	}
}

// TestIntegrateContextCanceledBeforeStart: a dead context must stop the
// pipeline before any stage runs.
func TestIntegrateContextCanceledBeforeStart(t *testing.T) {
	sources, err := BuiltinDomain("Airline")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var events []StageEvent
	res, err := IntegrateContext(ctx, sources, WithObserver(func(e StageEvent) {
		events = append(events, e)
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
	if len(events) != 0 {
		t.Fatalf("canceled run emitted stage events: %v", events)
	}
}

// cancelAfterStage integrates with the matcher and cancels the context
// from inside the observer as the named stage completes, so the next
// stage deterministically enters with a dead context. It returns the
// stages that ran to completion.
func cancelAfterStage(t *testing.T, stage string) []string {
	t.Helper()
	sources, err := BuiltinDomain("Hotels")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done []string
	res, err := IntegrateContext(ctx, sources,
		WithMatcher(), WithParallelism(4),
		WithObserver(func(e StageEvent) {
			done = append(done, e.Stage)
			if e.Stage == stage {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel after %q: err = %v, want context.Canceled", stage, err)
	}
	if res != nil {
		t.Fatalf("cancel after %q returned a result", stage)
	}
	return done
}

// TestIntegrateContextCancelMidPipeline cancels right after each stage
// boundary and checks the pipeline stops there: the canceled stage never
// reports completion.
func TestIntegrateContextCancelMidPipeline(t *testing.T) {
	cases := []struct {
		after string // stage whose completion triggers cancel
		next  string // stage that must never complete
	}{
		{"validate", "match"},
		{"match", "merge"},
		{"merge", "naming"},
	}
	for _, tc := range cases {
		t.Run("after_"+tc.after, func(t *testing.T) {
			done := cancelAfterStage(t, tc.after)
			for _, s := range done {
				if s == tc.next {
					t.Fatalf("stage %q completed despite cancellation after %q (ran: %v)", tc.next, tc.after, done)
				}
			}
		})
	}
}

// TestObserverStageSequence pins the stage order and sanity-checks the
// unit counts on a matcher-enabled run.
func TestObserverStageSequence(t *testing.T) {
	sources, err := BuiltinDomain("Airline")
	if err != nil {
		t.Fatal(err)
	}
	var events []StageEvent
	if _, err := Integrate(sources, WithMatcher(), WithObserver(func(e StageEvent) {
		events = append(events, e)
	})); err != nil {
		t.Fatal(err)
	}
	want := []string{"validate", "match", "merge", "naming"}
	if len(events) != len(want) {
		t.Fatalf("got %d stage events, want %d: %v", len(events), len(want), events)
	}
	for i, e := range events {
		if e.Stage != want[i] {
			t.Errorf("stage[%d] = %q, want %q", i, e.Stage, want[i])
		}
		if e.Units <= 0 {
			t.Errorf("stage %q reports %d units", e.Stage, e.Units)
		}
		if e.Duration < 0 {
			t.Errorf("stage %q reports negative duration", e.Stage)
		}
	}
}

// TestConfigValidate covers the exported validation surface directly and
// through Integrate.
func TestConfigValidate(t *testing.T) {
	valid := Config{MaxLevel: 3, MinFrequency: 2, Parallelism: 4}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	invalid := []Config{
		{MaxLevel: -1},
		{MaxLevel: 4},
		{MinFrequency: -1},
		{Parallelism: -1},
	}
	for _, cfg := range invalid {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v passed validation", cfg)
		}
		sources, _ := BuiltinDomain("Airline")
		if _, err := Integrate(sources, WithConfig(cfg)); err == nil {
			t.Errorf("Integrate accepted invalid config %+v", cfg)
		}
	}
}

// TestWithConfigEquivalence: building a Config directly must be
// indistinguishable from stacking the thin With* options.
func TestWithConfigEquivalence(t *testing.T) {
	cfg := Config{UseMatcher: true, DisableInstances: true, MaxLevel: 2, MinFrequency: 2}
	byOptions := Fingerprint(WithMatcher(), WithoutInstances(), WithMaxLevel(2), WithMinFrequency(2))
	byConfig := Fingerprint(WithConfig(cfg))
	if byOptions != byConfig {
		t.Fatalf("fingerprints diverge:\noptions: %s\nconfig:  %s", byOptions, byConfig)
	}

	sources, err := BuiltinDomain("Book")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Integrate(sources, WithMatcher())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Integrate(sources, WithConfig(Config{UseMatcher: true}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Labels, r2.Labels) || r1.Tree.String() != r2.Tree.String() {
		t.Fatal("WithConfig run diverges from equivalent With* run")
	}
}

// TestFingerprintExcludesRuntimeKnobs: parallelism and the observer can
// never change the output, so they must not fragment the cache key space.
func TestFingerprintExcludesRuntimeKnobs(t *testing.T) {
	plain := Fingerprint()
	tuned := Fingerprint(WithParallelism(16), WithObserver(func(StageEvent) {}))
	if plain != tuned {
		t.Fatalf("fingerprint depends on runtime knobs:\nplain: %s\ntuned: %s", plain, tuned)
	}
}
