package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sample is one operation as the generator saw it.
type sample struct {
	route string
	lat   time.Duration // from the scheduled (open loop) or actual (closed loop) send to the reply
	done  time.Duration // reply time since the window opened
	err   bool          // transport error or unexpected status
	op    int           // the scheduled operation (open loop only)
}

// opFunc sends one operation; it reports its route and whether the reply
// arrived with the expected status. Output checks run after the window.
type opFunc func(ctx context.Context) (route string, ok bool)

// closedLoop runs clients that each send their next operation as soon as
// the previous one is answered, until the window ends. next(c) hands
// client c its next operation, or nil when it has none left. The
// generator's lateness in a closed loop is the time a client spends
// between one reply and its next send.
func closedLoop(ctx context.Context, clients int, window time.Duration, next func(client int) opFunc) ([]sample, []time.Duration) {
	start := time.Now()
	deadline := start.Add(window)
	var (
		mu      sync.Mutex
		samples []sample
		lags    []time.Duration
		wg      sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			var myLags []time.Duration
			last := time.Now()
			for time.Now().Before(deadline) {
				op := next(c)
				if op == nil {
					break
				}
				t0 := time.Now()
				myLags = append(myLags, t0.Sub(last))
				route, ok := op(ctx)
				last = time.Now()
				mine = append(mine, sample{route: route, lat: last.Sub(t0), done: last.Sub(start), err: !ok})
			}
			mu.Lock()
			samples = append(samples, mine...)
			lags = append(lags, myLags...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	sort.Slice(samples, func(i, j int) bool { return samples[i].done < samples[j].done })
	return samples, lags
}

// arrival is one scheduled open-loop operation.
type arrival struct {
	at time.Duration // offset from the rung's start
	op int
}

// poissonSchedule draws arrivals at the given rate for dur: exponential
// inter-arrival gaps from the seeded stream r. pick assigns each arrival
// its operation.
func poissonSchedule(r *rng, rate float64, dur time.Duration, pick func() int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += -math.Log(1-r.float()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, op: pick()})
	}
}

// openRung runs one open-loop rung: a dispatcher releases each arrival at
// its scheduled time into a queue that conns connections drain. Latency
// counts from the scheduled time, so a stall delays every arrival behind
// it. Arrivals still queued when the rung's time is up are not sent; their
// count is the rung's backlog. The generator's lateness is how long after
// its scheduled time the dispatcher released each arrival.
func openRung(ctx context.Context, conns int, dur time.Duration, sched []arrival, do func(op int) opFunc) (samples []sample, backlog int, lags []time.Duration) {
	queue := make(chan arrival, len(sched)) // sized to the schedule: release never blocks
	stop := make(chan struct{})
	start := time.Now()
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		dropped int
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			defer func() {
				mu.Lock()
				samples = append(samples, mine...)
				mu.Unlock()
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				select {
				case <-stop:
					return
				case a := <-queue:
					select {
					case <-stop:
						// Both were ready and the arrival won; it was
						// never sent, so it belongs to the backlog.
						mu.Lock()
						dropped++
						mu.Unlock()
						return
					default:
					}
					route, ok := do(a.op)(ctx)
					now := time.Since(start)
					mine = append(mine, sample{route: route, lat: now - a.at, done: now, err: !ok, op: a.op})
				}
			}
		}()
	}
	lags = make([]time.Duration, 0, len(sched))
	for _, a := range sched {
		sleepUntil(start.Add(a.at))
		lags = append(lags, time.Since(start)-a.at)
		queue <- a
	}
	sleepUntil(start.Add(dur))
	close(stop)
	wg.Wait()
	backlog = len(queue) + dropped
	sort.Slice(samples, func(i, j int) bool { return samples[i].done < samples[j].done })
	return samples, backlog, lags
}

// sleepUntil blocks the calling thread until t in the kernel's own timer.
// The Go scheduler rounds sleeps below a millisecond up to one when it
// waits in the network poller, which would make an open-loop dispatcher
// release arrivals up to a millisecond late; nanosleep keeps the lateness
// in the tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}
