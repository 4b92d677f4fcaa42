package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/kernels"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/netplan"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/serve"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// The traced pass times each layer's public calls from outside the
// program: nothing inside serve, netplan or graph is instrumented. A
// verified request is replayed three ways, one after another on an idle
// host: through the server (serve), as one netplan.Run (netplan), and
// unit by unit through graph's executors with the device construction
// and the golden reference timed on the same shapes (graph, mcu,
// kernels).

// unitKinds are the executor unit kinds, in report order.
var unitKinds = []string{"fused", "seam", "split", "unfused"}

// unit is one execution unit of a plan, called through graph's public
// executors with the seed netplan.Run gives it.
type unit struct {
	kind  string
	flash int // flash bytes the executor's device is built with
	run   func(seed int64) (graph.ExecResult, error)
	// golden draws inputs and weights of the unit's shapes and returns
	// the golden recompute the executor verifies against, ready to time.
	golden func(rng *rand.Rand) func()
}

// sinks keep timed results alive so the calls cannot be optimized away.
var (
	sinkDevice *mcu.Device
	sinkBytes  []int8
)

// planUnits lists np's execution units in netplan.Run's result order:
// the split region, then each remaining module, then each streamed seam.
func planUnits(prof mcu.Profile, net graph.Network, np *netplan.NetworkPlan) []unit {
	var units []unit
	start := 0
	if np.Split != nil {
		sp := np.Split.Plan
		flash := 0
		for _, cfg := range sp.Spec.Modules {
			flash += moduleFlash(cfg)
		}
		units = append(units, unit{
			kind: "split", flash: flash,
			run:    func(seed int64) (graph.ExecResult, error) { return graph.RunSplitRegion(prof, sp, seed) },
			golden: bottleneckGolden(sp.Spec.Modules, false),
		})
		start = np.Split.Depth
	}
	for mi := start; mi < len(net.Modules); mi++ {
		cfg, sched, off := net.Modules[mi], np.Modules[mi], int64(mi)
		u := unit{kind: "fused", flash: moduleFlash(cfg), golden: bottleneckGolden([]plan.Bottleneck{cfg}, cfg.Residual())}
		if sched.Policy == netplan.PolicyUnfused {
			u.kind = "unfused"
			u.run = func(seed int64) (graph.ExecResult, error) { return graph.RunModuleUnfused(prof, cfg, seed+off) }
		} else {
			// Fused and baseline policies both run the fused kernel.
			p := sched.Plans[0]
			u.run = func(seed int64) (graph.ExecResult, error) { return graph.RunModuleWithPlan(prof, cfg, p, seed+off) }
		}
		units = append(units, u)
	}
	for si, s := range np.Seams {
		off := int64(len(net.Modules) + si)
		units = append(units, unit{
			kind: "seam", flash: s.Spec.Cout*s.Spec.Cin + 4*s.Spec.Cout + 64,
			run:    func(seed int64) (graph.ExecResult, error) { return graph.RunSeam(prof, s.Spec, s.Plan, seed+off) },
			golden: seamGolden(s.Spec),
		})
	}
	return units
}

// moduleFlash is the flash a module executor's device holds: its weights,
// biases and a small header.
func moduleFlash(cfg plan.Bottleneck) int {
	return cfg.Cmid*cfg.Cin + cfg.R*cfg.S*cfg.Cmid + cfg.Cout*cfg.Cmid + 4*(2*cfg.Cmid+cfg.Cout) + 64
}

func randI8(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(rng.Intn(255) - 127)
	}
	return out
}

func randI32(rng *rand.Rand, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Intn(1<<9) - 1<<8)
	}
	return out
}

func bottleneckGolden(mods []plan.Bottleneck, residual bool) func(*rand.Rand) func() {
	return func(rng *rand.Rand) func() {
		in := randI8(rng, mods[0].H*mods[0].W*mods[0].Cin)
		wts := make([]kernels.BottleneckWeights, len(mods))
		for i, cfg := range mods {
			wts[i] = kernels.BottleneckWeights{
				W1: randI8(rng, cfg.Cmid*cfg.Cin), B1: randI32(rng, cfg.Cmid),
				Wd: randI8(rng, cfg.R*cfg.S*cfg.Cmid), Bd: randI32(rng, cfg.Cmid),
				W2: randI8(rng, cfg.Cout*cfg.Cmid), B2: randI32(rng, cfg.Cout),
				Req1: tensor.NewRequant(0.01, 0), ReqD: tensor.NewRequant(0.05, 0), Req2: tensor.NewRequant(0.01, 0),
			}
		}
		return func() {
			x := in
			for i, cfg := range mods {
				x = kernels.GoldenBottleneck(x, cfg.H, cfg.W, cfg.Cin, cfg.Cmid, cfg.Cout,
					cfg.R, cfg.S, cfg.S1, cfg.S2, cfg.S3, wts[i], residual)
			}
			sinkBytes = x
		}
	}
}

func seamGolden(spec plan.SeamSpec) func(*rand.Rand) func() {
	return func(rng *rand.Rand) func() {
		in := randI8(rng, spec.InBytes())
		w := randI8(rng, spec.Cout*spec.Cin)
		bias := randI32(rng, spec.Cout)
		req := tensor.NewRequant(0.01, 0)
		return func() {
			sinkBytes = kernels.GoldenPointwise(in, spec.H, spec.W, spec.Cin, spec.Cout, spec.Stride, w, bias, req)
		}
	}
}

// measureCall times f and reports the bytes it allocated. The caller
// must be the only goroutine allocating.
func measureCall(f func()) (time.Duration, uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	f()
	d := time.Since(start)
	runtime.ReadMemStats(&b)
	return d, b.TotalAlloc - a.TotalAlloc
}

// series collects one value per replayed request for each metric.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// replay re-sends the issued requests one at a time on the idle server
// srv and, for a verified workload, replays each through netplan and
// graph directly. It stops when budget is spent or the requests run out,
// after at least one request.
func replay(w *workload, srv *serve.Server, issued []request, budget time.Duration, t *tally) (series, error) {
	out := series{}
	var (
		prof  mcu.Profile
		cache *netplan.Cache
		units []unit
		pn    pin
	)
	if w.verified() {
		prof = w.devices[0].Profile
		cache = netplan.NewCacheWithCap(serve.DefaultCacheEntries)
		np, _, err := cache.Plan(w.models[0].net, netplan.Options{})
		if err != nil {
			return nil, err
		}
		units = planUnits(prof, w.models[0].net, np)
		if pn, err = pinFor(w.models[0].name, prof); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for i, req := range issued {
		if i > 0 && time.Since(start) >= budget {
			break
		}
		m := w.models[req.model]
		t.attempted++
		t0 := time.Now()
		tk, err := srv.Submit(m.name, serve.SubmitOptions{Seed: req.seed})
		submit := time.Since(t0)
		if err != nil {
			t.fail("replay submit %s: %v", m.name, err)
			continue
		}
		if !resolves(tk) {
			return nil, fmt.Errorf("replay: ticket %d unresolved after %v", tk.ID(), resolveLimit)
		}
		roundtrip := time.Since(t0)
		res, err := tk.Result()
		if err := checkResult(w, req, res, err); err != nil {
			t.fail("replay %s seed %d: %v", m.name, req.seed, err)
			continue
		}
		out.add("serve.submit_us", us(submit))
		out.add("serve.roundtrip_us", us(roundtrip))
		covered := submit + res.QueueWait
		if w.verified() {
			run, ok := replayLayers(w, prof, cache, units, pn, req, out, t)
			if !ok {
				continue
			}
			covered += run
		}
		out.add("trace.unaccounted_pct", 100*(1-float64(covered)/float64(roundtrip)))
	}
	return out, nil
}

// replayLayers replays one verified request through netplan and graph,
// adding its per-layer values to out. It returns the netplan.Run time and
// false if any check failed.
func replayLayers(w *workload, prof mcu.Profile, cache *netplan.Cache, units []unit,
	pn pin, req request, out series, t *tally) (time.Duration, bool) {
	net := w.models[0].net
	t0 := time.Now()
	_, hit, err := cache.Plan(net, netplan.Options{})
	lookup := time.Since(t0)
	if err != nil || !hit {
		t.fail("replay plan lookup: hit=%v err=%v", hit, err)
		return 0, false
	}
	t0 = time.Now()
	run, err := netplan.Run(prof, net, req.seed, netplan.Options{}, cache)
	runDur := time.Since(t0)
	if err == nil {
		err = checkRun(run, pn)
	}
	if err != nil {
		t.fail("replay netplan.Run seed %d: %v", req.seed, err)
		return 0, false
	}

	executed := append(append([]graph.ExecResult(nil), run.Modules...), run.Seams...)
	if len(executed) != len(units) {
		t.fail("replay: netplan.Run executed %d units, plan lists %d", len(executed), len(units))
		return 0, false
	}
	rng := rand.New(rand.NewSource(req.seed))
	kindMs, kindKB, kindUnits := map[string]float64{}, map[string]float64{}, map[string]float64{}
	var unitMs, goldenMs, newMs, newKB float64
	for i, u := range units {
		d, a := measureCall(func() { sinkDevice = mcu.New(prof, u.flash) })
		newMs += ms(d)
		newKB += kb(a)
		call := u.golden(rng)
		g, _ := measureCall(call)
		goldenMs += ms(g)
		var r graph.ExecResult
		var uerr error
		d, a = measureCall(func() { r, uerr = u.run(req.seed) })
		switch {
		case uerr != nil:
			t.fail("replay unit %d (%s): %v", i, u.kind, uerr)
			return 0, false
		case !r.OutputOK || r.Violations != 0:
			t.fail("replay unit %s: verified=%v violations=%d", r.Name, r.OutputOK, r.Violations)
			return 0, false
		case r.Stats != executed[i].Stats:
			t.fail("replay unit %s: counters %+v differ from netplan.Run's %+v", r.Name, r.Stats, executed[i].Stats)
			return 0, false
		}
		unitMs += ms(d)
		kindMs[u.kind] += ms(d)
		kindKB[u.kind] += kb(a)
		kindUnits[u.kind]++
	}
	workers := min(runtime.GOMAXPROCS(0), len(units))
	st := executedStats(run)
	for _, k := range unitKinds {
		out.add("graph."+k+".ms", kindMs[k])
		out.add("graph."+k+".units", kindUnits[k])
		out.add("graph."+k+".alloc_kb", kindKB[k])
	}
	out.add("kernels.golden_ms", goldenMs)
	out.add("kernels.golden_share", goldenMs/unitMs)
	out.add("mcu.device_new_ms", newMs)
	out.add("mcu.device_alloc_kb", newKB)
	out.add("mcu.sim_mcycles", st.Cycles(prof)/1e6)
	out.add("mcu.macs_m", float64(st.MACs)/1e6)
	out.add("mcu.ram_read_kb", kb(st.RAMReadBytes))
	out.add("mcu.ram_write_kb", kb(st.RAMWriteBytes))
	out.add("plan_peak_kb", float64(run.Plan.PeakBytes)/1024)
	out.add("sim_latency_ms", 1e3*st.LatencySeconds(prof))
	out.add("sim_energy_mj", 1e3*st.EnergyJoules(prof))
	out.add("netplan.run_ms", ms(runDur))
	out.add("netplan.parallel_efficiency", unitMs/(ms(runDur)*float64(workers)))
	out.add("netplan.plan_lookup_us", us(lookup))
	return runDur, true
}

// planningProbe times the set-up layers directly, median of reps: a cold
// netplan.Plan of every model, netplan.Pareto of every model registered
// with its frontier, and netplan.EstimatePlan of each min-peak plan, all
// priced under the workload's reference profile.
func planningProbe(w *workload, reps int) (coldMs, paretoMs, estimateUs float64, err error) {
	ref := w.refProfile()
	var cold, pareto, estimate []float64
	for rep := 0; rep < reps; rep++ {
		var c, p, e time.Duration
		for _, m := range w.models {
			t0 := time.Now()
			np, err := netplan.Plan(m.net, netplan.Options{})
			c += time.Since(t0)
			if err != nil {
				return 0, 0, 0, err
			}
			t0 = time.Now()
			if _, err := netplan.EstimatePlan(ref, m.net, np); err != nil {
				return 0, 0, 0, err
			}
			e += time.Since(t0)
			if m.pareto {
				t0 = time.Now()
				if _, err := netplan.Pareto(ref, m.net, netplan.Options{}); err != nil {
					return 0, 0, 0, err
				}
				p += time.Since(t0)
			}
		}
		cold = append(cold, ms(c))
		pareto = append(pareto, ms(p))
		estimate = append(estimate, us(e))
	}
	return median(cold), median(pareto), median(estimate), nil
}
