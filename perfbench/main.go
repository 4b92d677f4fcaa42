// Command perfbench is the repository's benchmark. It drives one named
// workload against the serving stack for a fixed time, checks every
// output, and prints one JSON result line as the last line of standard
// output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the untraced end-to-end numbers; with
// --trace 1 they are the per-layer numbers of a traced pass that replays
// the same seeds. Any failed check prints correct=false and exits 1.
// README.md describes the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload imagenet_m7_verified --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/vmcu-project/vmcu/internal/obs"
	"github.com/vmcu-project/vmcu/internal/serve"
)

func main() { os.Exit(runWith(os.Args[1:], os.Stdout, os.Stderr, minCompletions)) }

// result is the printed result line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWith runs the command line args. An untraced run measures until it
// has minDone completions (the self-test passes 0 to stay short).
func runWith(args []string, stdout, stderr io.Writer, minDone int) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed; every request's seed is drawn from it")
	seconds := fs.Int("seconds", 20, "seconds to measure")
	trace := fs.Int("trace", 0, "0: untraced end-to-end metrics; 1: traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	res, problems, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, minDone)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range problems {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", w.name, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

const (
	// segments splits an untraced run: each segment builds, registers
	// and warms a fresh server (a set-up sample) and then measures it
	// for an equal share of the run, so that no one server's heap layout
	// sets the run's figure. Throughput and latency pool the segments:
	// the host's speed drifts over tens of seconds, and only a figure
	// over the whole run averages that drift.
	segments = 5
	// A segment repeats its set-up, closing each server but the last,
	// until it has spent setupBudget or taken setupMax samples, so that a
	// set-up of a few milliseconds still gets a steady median.
	setupBudget = 250 * time.Millisecond
	setupMax    = 16
	// planningReps repeats the traced pass's planning probe.
	planningReps = 5
)

// measure runs workload w once. An error means the benchmark could not
// run at all; a failed check is reported through the result instead.
func measure(w *workload, seed int64, dur time.Duration, traced bool, minDone int) (result, []string, error) {
	master := rand.New(rand.NewSource(seed))
	var t tally
	residual := 0.0
	if w.verified() {
		var err error
		if residual, err = estimateResidual(w); err != nil {
			t.fail("%v", err)
		}
	}

	vals := map[string]float64{}
	if traced {
		srv, _, err := w.setUp(master, &t)
		if err != nil {
			return result{}, nil, err
		}
		unresolved, err := w.layerValues(srv, w.clientSeeds(master), dur, residual, &t, vals)
		if err != nil {
			return result{}, nil, err
		}
		if err := finish(srv, unresolved, &t); err != nil {
			return result{}, nil, err
		}
		vals["error_rate"] = float64(t.failed) / float64(t.attempted)
	} else if err := w.untraced(master, dur, minDone, &t, vals); err != nil {
		return result{}, nil, err
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics, missing := emit(defs, vals)
	for _, m := range missing {
		t.fail("metric %s was not measured", m)
	}
	return result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}, t.problems, nil
}

// clientSeeds draws one request-stream seed per client.
func (w *workload) clientSeeds(master *rand.Rand) []int64 {
	seeds := make([]int64, w.clientCount())
	for c := range seeds {
		seeds[c] = master.Int63()
	}
	return seeds
}

// finish checks the ledger invariant and closes srv. A ticket that never
// resolved keeps Close waiting forever, so then the server is left to
// process exit; the run has already failed.
func finish(srv *serve.Server, unresolved bool, t *tally) error {
	if unresolved {
		return nil
	}
	overCommits(srv, t)
	return srv.Close()
}

// untraced is the end-to-end run: segments of set-up plus closed loop,
// together at least minDone completions.
func (w *workload) untraced(master *rand.Rand, dur time.Duration, minDone int, t *tally, vals map[string]float64) error {
	var setups, latency []float64
	var completed int
	var wall time.Duration
	var alloc uint64
	for seg := 0; seg < segments; seg++ {
		runtime.GC()
		srv, d, err := w.setUp(master, t)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		for spent, n := d, 1; spent < setupBudget && n < setupMax; n++ {
			if err := finish(srv, false, t); err != nil {
				return err
			}
			if srv, d, err = w.setUp(master, t); err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
			spent += d
		}
		u := w.closedLoop(srv, w.clientSeeds(master), dur/segments, max(dur, maxLoop)/segments, (minDone+segments-1)/segments)
		t.merge(u.tally)
		if err := finish(srv, u.unresolved, t); err != nil || u.unresolved {
			return err
		}
		wall += u.wall
		latency = append(latency, u.latencyMs...)
		completed += u.completed
		alloc += u.allocBytes
	}
	vals["throughput_rps"] = float64(completed) / wall.Seconds()
	vals["latency_p50_ms"] = quantile(latency, 0.5)
	vals["latency_p90_ms"] = quantile(latency, 0.9)
	vals["setup_s"] = median(setups)
	vals["alloc_kb_per_req"] = kb(alloc) / float64(completed)
	return nil
}

// layerValues is the traced run: an untraced closed-loop phase whose
// seeds the traced replay then re-sends, plus, on the dry run, a phase
// with the sampled tracer on. It fills vals with every per-layer metric
// except error_rate and reports whether a ticket never resolved.
func (w *workload) layerValues(srv *serve.Server, clientSeeds []int64, dur time.Duration, residual float64,
	t *tally, vals map[string]float64) (bool, error) {
	phases := 2
	if !w.verified() {
		phases = 3
	}
	phase := dur / time.Duration(phases)

	m0 := srv.Metrics()
	u := w.closedLoop(srv, clientSeeds, phase, phase, 0)
	t.merge(u.tally)
	if u.unresolved {
		return true, nil
	}
	m1 := srv.Metrics()
	var admitted uint64
	for i, d := range m1.Devices {
		admitted += d.Admitted - m0.Devices[i].Admitted
	}
	vals["serve.queue_wait_ms"] = median(u.queueMs)
	vals["serve.queue_high_water"] = float64(m1.QueueHighWater)
	vals["serve.variant_upgrade_ratio"] = ratio(m1.VariantUpgrades-m0.VariantUpgrades, admitted)
	vals["serve.degraded_ratio"] = ratio(m1.DegradedAdmissions-m0.DegradedAdmissions, admitted)
	vals["netplan.cache_hit_ratio"] = ratio(m1.Cache.Hits-m0.Cache.Hits,
		m1.Cache.Hits+m1.Cache.Misses-m0.Cache.Hits-m0.Cache.Misses)

	vals["obs.sampled_tax_pct"] = 0
	if !w.verified() {
		tax, unresolved, err := w.sampledTax(clientSeeds, phase, u, t)
		if unresolved || err != nil {
			return unresolved, err
		}
		vals["obs.sampled_tax_pct"] = tax
		for _, d := range perLayer {
			if d.executed {
				vals[d.name] = 0
			}
		}
	}

	s, err := replay(w, srv, u.issued, phase, t)
	if err != nil {
		return false, err
	}
	for name, xs := range s {
		vals[name] = median(xs)
	}
	cold, pareto, estimate, err := planningProbe(w, planningReps)
	if err != nil {
		return false, err
	}
	vals["netplan.cold_plan_ms"] = cold
	vals["netplan.pareto_ms"] = pareto
	vals["cost.estimate_us"] = estimate
	vals["cost.cycles_residual_pct"] = residual
	return false, nil
}

// sampledTax reruns the untraced phase u on a fresh server with a
// 1%-head-sampled tracer and flight recorder, and returns the throughput
// lost to it, in percent.
func (w *workload) sampledTax(clientSeeds []int64, phase time.Duration, u loopResult, t *tally) (float64, bool, error) {
	tr := obs.New(obs.Options{})
	tr.EnableFlight(obs.FlightOptions{})
	tr.EnableSampling(obs.SamplerOptions{Rate: 0.01})
	srv, err := w.newServer(tr)
	if err != nil {
		return 0, false, err
	}
	s := w.closedLoop(srv, clientSeeds, phase, phase, 0)
	t.merge(s.tally)
	if s.unresolved {
		return 0, true, nil
	}
	overCommits(srv, t)
	if err := srv.Close(); err != nil {
		return 0, false, err
	}
	base := float64(u.completed) / u.wall.Seconds()
	sampled := float64(s.completed) / s.wall.Seconds()
	return 100 * (1 - sampled/base), false, nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
