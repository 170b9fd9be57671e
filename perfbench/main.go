// Command perfbench is qilabel's end-to-end benchmark. It builds nothing
// itself (run.sh builds qilabeld and this program from the checkout), then
// for one seeded workload it
//
//  1. generates the workload's inputs from --seed and computes every
//     expected answer in-process, before any daemon runs;
//  2. launches qilabeld as a child process on loopback with its default
//     flags, several times, timing each launch until /healthz answers and
//     the workload's priming requests are done (setup_s is the median);
//  3. drives the last launch for --seconds from this one process over at
//     most two connections, recording every operation's latency;
//  4. checks every answer against the expected one, counting wrong answers
//     as failures, and reads the daemon's peak RSS and /metrics counters;
//  5. with --trace 1, replays the same inputs in-process with spans around
//     each call into a layer's public functions, writes the spans to the
//     build directory and reports the per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// carrying the gated end-to-end metrics — throughput_ops_s, peak_rss_mb
// and setup_s — (--trace 0) or the per-layer metrics (--trace 1). The
// lines before it are the human-readable report, which also gives the
// latency percentiles, failed_frac and the diagnostics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// conns is the number of connections (and generator workers) the
// benchmark drives the daemon with: the machine's two CPUs.
const conns = 2

// launches is how many times set-up runs; setup_s is the median.
const launches = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one seeded traffic mix.
type workload interface {
	// prepare generates the inputs and expected answers in-process.
	prepare(seconds time.Duration) error
	// prime sends the requests a fresh daemon needs before timing.
	prime(ctx context.Context, d *daemon) error
	// run drives the daemon for the window.
	run(ctx context.Context, d *daemon, window time.Duration) (*outcome, error)
	// check verifies every recorded answer after the window and sets the
	// outcome's throughput.
	check(ctx context.Context, d *daemon, o *outcome) error
}

// outcome is what one timed window produced.
type outcome struct {
	samples    []sample        // the operations latency is reported over
	lags       []time.Duration // generator lateness
	attempted  int
	failed     int // refused, timed out or wrongly answered
	wrong      int // answered, but not with the expected output
	throughput float64
	window     time.Duration
	route      string // the route server.transport_ms compares
	notes      []string
	// p50 and p99, when set, replace the percentiles of samples: the
	// read-mostly workload reports medians over one-second slices.
	p50, p99 time.Duration
}

// rateParts is how many equal slices a window's throughput is measured
// over; the reported throughput is their median, so a burst of
// interference in one slice does not move it.
const rateParts = 10

// sliceRates is the success rate in each of rateParts equal slices of the
// window.
func sliceRates(samples []sample, window time.Duration) []float64 {
	slice := window / rateParts
	rates := make([]float64, rateParts)
	for _, s := range samples {
		if !s.err && s.done < window {
			rates[s.done/slice] += 1 / slice.Seconds()
		}
	}
	return rates
}

// successRate is the median, over rateParts equal slices of the window,
// of operations answered successfully per second, less the window's
// wrongly answered operations per second.
func successRate(samples []sample, wrong int, window time.Duration) float64 {
	return medianFloat(sliceRates(samples, window)) - float64(wrong)/window.Seconds()
}

// closeLoop sets a closed loop's throughput and reports its slices.
func (o *outcome) closeLoop() {
	o.throughput = successRate(o.samples, o.wrong, o.window)
	o.notes = append(o.notes, "successes per second by tenth of the window (throughput_ops_s is their median): "+fmtFloats(sliceRates(o.samples, o.window)))
}

func main() {
	wl := flag.String("workload", "", "workload: integrate-cold, read-mostly or stateful")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1: also run the traced in-process replay and report per-layer metrics")
	bin := flag.String("daemon", "", "path of the qilabeld binary")
	out := flag.String("out", ".bench_build", "directory for logs and span files")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "integrate-cold":
		return &coldWorkload{seed: seed}, nil
	case "read-mostly":
		return &readWorkload{seed: seed}, nil
	case "stateful":
		return &statefulWorkload{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want integrate-cold, read-mostly or stateful)", name)
}

func run(name string, seed uint64, window time.Duration, trace bool, bin, outDir string) error {
	if bin == "" {
		return errors.New("no --daemon binary given; run through perfbench/run.sh")
	}
	if window <= 0 {
		return errors.New("--seconds must be positive")
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("creating output directory: %w", err)
	}
	if err := w.prepare(window); err != nil {
		return fmt.Errorf("preparing inputs: %w", err)
	}
	// Hand the preparation's garbage back before the daemon starts, so
	// this process's collector does not compete with it in the window.
	runtime.GC()
	debug.FreeOSMemory()

	ctx := context.Background()
	client := newClient(conns, 30*time.Second)
	logPath := filepath.Join(outDir, "qilabeld-"+name+".log")
	var (
		d      *daemon
		setups []float64
	)
	for i := 0; i < launches; i++ {
		t0 := time.Now()
		d, err = startDaemon(bin, logPath, client)
		if err != nil {
			return err
		}
		if err := w.prime(ctx, d); err != nil {
			d.stop()
			return fmt.Errorf("priming: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < launches-1 {
			d.stop()
		}
	}
	defer d.stop()

	before, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	total0, steal0, err := cpuTimes()
	if err != nil {
		return err
	}
	o, err := w.run(ctx, d, window)
	if err != nil {
		return err
	}
	total1, steal1, err := cpuTimes()
	if err != nil {
		return err
	}
	after, err := d.metrics(ctx)
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	if err := w.check(ctx, d, o); err != nil {
		return fmt.Errorf("checking answers: %w", err)
	}
	d.stop()

	lats := make([]time.Duration, 0, len(o.samples))
	for _, s := range o.samples {
		if !s.err {
			lats = append(lats, s.lat)
		}
	}
	if len(lats) == 0 {
		return errors.New("no operation succeeded")
	}
	setup := medianFloat(setups)
	p50, p99 := quantile(lats, 0.50), quantile(lats, 0.99)
	latencyHow := fmt.Sprintf("over all %d answered operations", len(lats))
	if o.p99 > 0 {
		p50, p99 = o.p50, o.p99
		latencyHow = "median over one-second slices (see below)"
	}
	lagP99 := quantile(o.lags, 0.99)

	report := []string{
		fmt.Sprintf("workload %s  seed %d  window %s  connections %d", name, seed, window, conns),
		fmt.Sprintf("setup_s           %10.4f s    median of %d launches %v", setup, launches, fmtFloats(setups)),
		fmt.Sprintf("throughput_ops_s  %10.2f 1/s", o.throughput),
		fmt.Sprintf("p50_ms            %10.4f ms   %s, n=%d (not gated)", ms(p50), latencyHow, len(lats)),
		fmt.Sprintf("p99_ms            %10.4f ms   %s, n=%d, %d samples beyond the pooled p99 (not gated)", ms(p99), latencyHow, len(lats), tailCount(lats, 0.99)),
		fmt.Sprintf("failed_frac       %10.4f      %d failed (%d wrong answers) of %d attempted", ratio(float64(o.failed), float64(o.attempted)), o.failed, o.wrong, o.attempted),
		fmt.Sprintf("peak_rss_mb       %10.2f MB   qilabeld VmHWM", rss),
		fmt.Sprintf("gen_lag_ms        %10.4f ms   p99 generator lateness (diagnostic)", ms(lagP99)),
		fmt.Sprintf("cpu_steal_frac    %10.4f      share of the machine's CPU time the hypervisor gave elsewhere during the window (diagnostic)", ratio(steal1-steal0, total1-total0)),
	}
	report = append(report, o.notes...)

	res := result{
		Correct:   o.wrong == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric),
	}
	if !trace {
		res.Metrics["setup_s"] = metric{setup, "s"}
		res.Metrics["throughput_ops_s"] = metric{o.throughput, "1/s"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	} else {
		vals, notes, err := tracedReplay(name, seed, filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed)))
		if err != nil {
			return err
		}
		report = append(report, notes...)
		hits := float64(after.Cache.Hits - before.Cache.Hits)
		misses := float64(after.Cache.Misses - before.Cache.Misses)
		vals["server.cache_hit_ratio"] = ratio(hits, hits+misses)
		vals["server.coalesced"] = float64(after.Cache.Coalesced - before.Cache.Coalesced)
		vals["server.transport_ms"] = transportMs(o.samples, o.route, after)
		vals["gen.lag_ms"] = ms(lagP99)
		for _, lm := range layerMetrics {
			v, ok := vals[lm.name]
			if !ok {
				return fmt.Errorf("traced run produced no %s", lm.name)
			}
			res.Metrics[lm.name] = metric{v, lm.unit}
		}
		report = append(report, "per-layer metrics (traced in-process replay; counters from /metrics):")
		for _, lm := range layerMetrics {
			report = append(report, fmt.Sprintf("  %-34s %14.4f %-6s moves %s on %s", lm.name, res.Metrics[lm.name].Value, lm.unit, lm.moves, lm.on))
		}
	}

	for _, line := range report {
		fmt.Println(line)
	}
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(data))
	return nil
}

// transportMs is the client's median latency on route over the last
// samples the daemon's per-route latency ring still holds, minus the
// daemon's own median for that route: the time a request spends outside
// the handler (connection, HTTP framing, the client itself).
func transportMs(samples []sample, route string, m serverMetrics) float64 {
	const ring = 1024 // the daemon's per-endpoint latency window
	var lats []time.Duration
	for i := len(samples) - 1; i >= 0 && len(lats) < ring; i-- {
		if samples[i].route == route && !samples[i].err {
			lats = append(lats, samples[i].lat)
		}
	}
	return ms(quantile(lats, 0.5)) - m.Endpoints[route].P50Ms
}

// tracedReplay runs the in-process replay three times: once to warm the
// process (lexicon tables, heap size, page faults), once without spans and
// once with them. It reports the per-layer metrics of the traced pass and
// the share of time the spans added to it.
func tracedReplay(name string, seed uint64, spanPath string) (map[string]float64, []string, error) {
	var took [3]time.Duration
	var vals map[string]float64
	var rec *recorder
	for pass := range took {
		rec = newRecorder(pass == 2)
		t0 := time.Now()
		v, err := replayAll(name, seed, rec)
		if err != nil {
			return nil, nil, err
		}
		took[pass], vals = time.Since(t0), v
	}
	vals["trace.overhead_frac"] = ratio(float64(took[2]-took[1]), float64(took[1]))
	if err := rec.write(spanPath); err != nil {
		return nil, nil, err
	}
	notes := []string{fmt.Sprintf("replay passes: warm-up %.2fs, untraced %.2fs, traced %.2fs (%d spans written to %s)",
		took[0].Seconds(), took[1].Seconds(), took[2].Seconds(), len(rec.spans), spanPath)}
	return vals, notes, nil
}

func fmtFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(s, " ") + "]"
}
