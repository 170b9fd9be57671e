package main

import (
	"math"
	"testing"
	"time"
)

func durs(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = time.Duration(100-i) * time.Millisecond // reversed: quantile must sort
	}
	cases := []struct {
		name    string
		samples []time.Duration
		q       float64
		want    time.Duration
	}{
		{"empty", nil, 0.5, 0},
		{"single", durs(7), 0.99, 7 * time.Millisecond},
		{"median odd", durs(3, 1, 2), 0.5, 2 * time.Millisecond},
		{"median even takes lower", durs(4, 1, 3, 2), 0.5, 2 * time.Millisecond},
		{"p99 of 100", hundred, 0.99, 99 * time.Millisecond},
		{"p50 of 100", hundred, 0.50, 50 * time.Millisecond},
		{"q=0 is min", durs(5, 9, 1), 0, 1 * time.Millisecond},
		{"q=1 is max", durs(5, 9, 1), 1, 9 * time.Millisecond},
	}
	for _, c := range cases {
		if got := quantile(c.samples, c.q); got != c.want {
			t.Errorf("%s: quantile(%v) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
	if hundred[0] != 100*time.Millisecond {
		t.Errorf("quantile sorted its input in place")
	}
}

func TestTailCount(t *testing.T) {
	s := make([]time.Duration, 1000)
	for i := range s {
		s[i] = time.Duration(i+1) * time.Microsecond
	}
	if got := tailCount(s, 0.99); got != 10 {
		t.Errorf("1000 distinct samples: %d beyond p99, want 10", got)
	}
	// Ties at the percentile are not beyond it.
	if got := tailCount(durs(1, 5, 5, 5, 5), 0.5); got != 0 {
		t.Errorf("tied samples: %d beyond p50, want 0", got)
	}
	if got := tailCount(nil, 0.99); got != 0 {
		t.Errorf("no samples: %d beyond, want 0", got)
	}
}

func TestMedianFloat(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := medianFloat(c.xs); got != c.want {
			t.Errorf("medianFloat(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio with nothing attempted = %v, want 0", got)
	}
	if got := ratio(0, 7); got != 0 {
		t.Errorf("ratio(0, 7) = %v", got)
	}
}

func TestSuccessRate(t *testing.T) {
	window := 10 * time.Second
	var samples []sample
	// Slice k of the ten one-second slices holds 100+k successes, one
	// failure and, in slice 3 only, a burst of 500 more successes.
	for k := 0; k < rateParts; k++ {
		n := 100 + k
		if k == 3 {
			n += 500
		}
		for i := 0; i < n; i++ {
			samples = append(samples, sample{done: time.Duration(k)*time.Second + time.Duration(i)*time.Microsecond})
		}
		samples = append(samples, sample{done: time.Duration(k) * time.Second, err: true})
	}
	samples = append(samples, sample{done: 11 * time.Second}) // after the window: ignored
	// The median of 100..109 with slice 3 at 603 is (105+106)/2; one
	// wrong answer in 10 s takes 0.1/s off.
	if got, want := successRate(samples, 1, window), 105.5-0.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("successRate = %v, want %v", got, want)
	}
	if got := successRate(nil, 0, window); got != 0 {
		t.Errorf("no samples: %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	cases := []struct {
		name     string
		parent   interval
		children []interval
		want     int // ms
	}{
		{"leaf", ms(0, 10), nil, 10},
		{"disjoint children", ms(0, 10), []interval{ms(1, 3), ms(5, 6)}, 7},
		{"overlapping children count once", ms(0, 10), []interval{ms(1, 5), ms(3, 7)}, 4},
		{"nested children count once", ms(0, 10), []interval{ms(1, 9), ms(2, 3)}, 2},
		{"child sticking out is clipped", ms(5, 10), []interval{ms(0, 7), ms(9, 20)}, 2},
		{"child outside contributes nothing", ms(0, 10), []interval{ms(11, 20)}, 10},
		{"fully covered", ms(0, 10), []interval{ms(0, 4), ms(4, 10)}, 0},
		{"unsorted children", ms(0, 10), []interval{ms(6, 8), ms(1, 2)}, 7},
	}
	for _, c := range cases {
		if got := selfTime(c.parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: selfTime = %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestRungPasses(t *testing.T) {
	limit, lagLimit := 25*time.Millisecond, 5*time.Millisecond
	good := rung{Rate: 1000, Sent: 1000, P99: 10 * time.Millisecond, Lag: time.Millisecond}
	if !good.passes(limit, lagLimit, 2) {
		t.Fatalf("a fast rung with no backlog should pass")
	}
	// The backlog slack is one latency limit's worth of arrivals plus one
	// per connection: 1000/s × 25 ms + 2 = 27.
	atSlack, overSlack := good, good
	atSlack.Backlog, overSlack.Backlog = 27, 28
	if !atSlack.passes(limit, lagLimit, 2) || overSlack.passes(limit, lagLimit, 2) {
		t.Errorf("backlog slack: 27 should pass, 28 should not")
	}
	for name, mutate := range map[string]func(*rung){
		"slow p99":       func(r *rung) { r.P99 = 26 * time.Millisecond },
		"a failure":      func(r *rung) { r.Failed = 1 },
		"late generator": func(r *rung) { r.Lag = 6 * time.Millisecond },
		"nothing sent":   func(r *rung) { r.Sent = 0 },
	} {
		r := good
		mutate(&r)
		if r.passes(limit, lagLimit, 2) {
			t.Errorf("%s: rung passed", name)
		}
	}
}

func TestMaxRate(t *testing.T) {
	limit, lagLimit := 25*time.Millisecond, 5*time.Millisecond
	ok := func(rate float64) rung { return rung{Rate: rate, Sent: 10, P99: time.Millisecond} }
	slow := func(rate float64) rung { return rung{Rate: rate, Sent: 10, P99: time.Second} }
	cases := []struct {
		name  string
		rungs []rung
		want  float64
	}{
		{"all pass", []rung{ok(100), ok(200), ok(400)}, 400},
		{"top fails", []rung{ok(100), ok(200), slow(400)}, 200},
		{"stops at the first failure", []rung{ok(100), slow(200), ok(400)}, 100},
		{"lowest fails", []rung{slow(100), ok(200)}, 0},
		{"empty ladder", nil, 0},
	}
	for _, c := range cases {
		if got := maxRate(c.rungs, limit, lagLimit, 2); got != c.want {
			t.Errorf("%s: maxRate = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPoissonSchedule(t *testing.T) {
	n := 0
	sched := poissonSchedule(newRNG(1, "test"), 2000, 5*time.Second, func() int { n++; return n - 1 })
	if len(sched) != n {
		t.Fatalf("schedule has %d arrivals but picked %d operations", len(sched), n)
	}
	// 10 000 expected arrivals; Poisson sd is 100, so ±5 % is > 5 sd.
	if math.Abs(float64(len(sched))-10000) > 500 {
		t.Errorf("%d arrivals at 2000/s over 5s, want about 10000", len(sched))
	}
	for i, a := range sched {
		if a.at < 0 || a.at >= 5*time.Second || (i > 0 && a.at < sched[i-1].at) || a.op != i {
			t.Fatalf("arrival %d = %+v out of order or range", i, a)
		}
	}
	again := poissonSchedule(newRNG(1, "test"), 2000, 5*time.Second, func() int { return 0 })
	if len(again) != len(sched) || again[len(again)-1].at != sched[len(sched)-1].at {
		t.Errorf("the same seed gave a different schedule")
	}
}

func TestSliceQuantile(t *testing.T) {
	var samples []sample
	// Three one-second slices by due time; the middle one is slow. A
	// sample due late in slice 0 but answered in slice 1 stays in slice 0.
	for slice, lat := range []time.Duration{time.Millisecond, 9 * time.Millisecond, 2 * time.Millisecond} {
		for i := 0; i < 100; i++ {
			due := time.Duration(slice)*time.Second + time.Duration(i)*time.Millisecond
			samples = append(samples, sample{lat: lat, done: due + lat})
		}
	}
	samples = append(samples, sample{lat: 500 * time.Millisecond, done: 1400 * time.Millisecond}) // due at 0.9 s
	samples = append(samples, sample{lat: time.Hour, done: 2 * time.Hour, err: true})             // failed: ignored
	got := sliceQuantile(samples, time.Second, 0.5)
	want := []time.Duration{time.Millisecond, 9 * time.Millisecond, 2 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("slices %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("slice %d median %v, want %v", i, got[i], want[i])
		}
	}
	if p99 := sliceQuantile(samples, time.Second, 1)[0]; p99 != 500*time.Millisecond {
		t.Errorf("slice 0 max %v, want the late reply's 500ms", p99)
	}
	if m := medianDuration(got); m != 2*time.Millisecond {
		t.Errorf("median of slice medians %v, want 2ms", m)
	}
}
