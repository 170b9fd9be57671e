package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-th quantile (0 ≤ q ≤ 1) of samples by the
// nearest-rank rule on a sorted copy: the smallest sample with at least
// q·n samples at or below it. Zero samples give 0.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[rank(len(sorted), q)]
}

// rank is the nearest-rank index of the q-th quantile among n sorted
// samples.
func rank(n int, q float64) int {
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// tailCount is the number of samples strictly above the q-th quantile: the
// samples a percentile estimate rests on. A p99 needs at least ten.
func tailCount(samples []time.Duration, q float64) int {
	v := quantile(samples, q)
	n := 0
	for _, s := range samples {
		if s > v {
			n++
		}
	}
	return n
}

// sliceQuantile groups successful samples into consecutive slices of the
// given length by the time each was due (its reply time minus its
// latency) and returns the q-th quantile of each slice that holds any.
func sliceQuantile(samples []sample, slice time.Duration, q float64) []time.Duration {
	groups := make(map[time.Duration][]time.Duration)
	var keys []time.Duration
	for _, s := range samples {
		if s.err {
			continue
		}
		k := (s.done - s.lat) / slice
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], s.lat)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]time.Duration, len(keys))
	for i, k := range keys {
		out[i] = quantile(groups[k], q)
	}
	return out
}

// medianDuration is the median of ds by the nearest-rank rule.
func medianDuration(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// medianFloat is the median of xs (the mean of the middle two for an even
// count); 0 for none.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms and us convert a duration to fractional milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rung is the outcome of one open-loop arrival rate.
type rung struct {
	Rate     float64 // offered arrivals per second
	Offered  int     // arrivals scheduled during the rung
	Sent     int     // arrivals a connection picked up before the rung ended
	Failed   int     // sent operations that failed
	P50, P99 time.Duration
	Tail     int           // samples beyond P99
	Achieved float64       // successful completions per second
	Backlog  int           // arrivals still queued when the rung ended
	Lag      time.Duration // generator lateness, 99th percentile
}

// passes reports whether the rung meets the latency limit without a
// growing backlog: its p99 is within limit, no operation failed, and at
// most slack arrivals were still waiting when the rung ended, where slack
// is what the rate delivers within one latency limit plus one per
// connection. A rung on which the generator itself ran later than
// lagLimit cannot vouch for the rate and does not pass.
func (r rung) passes(limit, lagLimit time.Duration, conns int) bool {
	slack := int(math.Ceil(r.Rate*limit.Seconds())) + conns
	return r.Sent > 0 && r.Failed == 0 && r.P99 <= limit && r.Backlog <= slack && r.Lag <= lagLimit
}

// maxRate is the highest ladder rate such that it and every lower rate
// pass; 0 when even the lowest rung fails. rungs are in ascending rate
// order.
func maxRate(rungs []rung, limit, lagLimit time.Duration, conns int) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.passes(limit, lagLimit, conns) {
			break
		}
		best = r.Rate
	}
	return best
}

// interval is a closed time interval on the trace clock.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other or stick out of the parent; only their
// union inside the parent's interval is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := time.Duration(0)
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
