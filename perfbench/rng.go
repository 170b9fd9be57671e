package main

import "hash/fnv"

// rng is a splitmix64 stream: small, fast and identical on every platform,
// so one seed always yields the same inputs.
type rng struct{ state uint64 }

// newRNG derives an independent stream from the run seed and a label, so
// each kind of input draws from its own sequence and adding a draw to one
// kind never shifts another.
func newRNG(seed uint64, label string) *rng {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &rng{state: seed ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// derive returns a per-item seed for item i of a labeled sequence.
func derive(seed uint64, label string, i int) uint64 {
	r := newRNG(seed, label)
	r.state += uint64(i) * 0x632be59bd9b4e019
	return r.next()
}
