package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/obs"
	"github.com/vmcu-project/vmcu/internal/serve"
)

// model is one registered network and its share of a workload's mix.
type model struct {
	name     string
	net      graph.Network
	pareto   bool          // register the whole Pareto frontier
	deadline time.Duration // admission deadline (MaxQueueWait); 0 = none
	weight   int           // relative share of the request mix
}

// workload is one named traffic mix against one simulated fleet. Every
// workload is a closed loop: each of its clients keeps window requests in
// flight and submits the next only when its oldest has resolved.
type workload struct {
	name    string
	devices []serve.DeviceConfig
	models  []model
	mode    serve.ExecMode
	clients int
	window  int
}

// workloads are the benchmark's traffic mixes. README.md records why
// each exists and which layers it exercises.
var workloads = []workload{
	{
		// The patch-split region, the unfused module and large kernels:
		// the slowest unit bounds each request in the parallel executor.
		// One client: netplan.Run already spreads a request's units over
		// every core, and a second client only interleaves two requests,
		// which makes each one's sojourn depend on the other's.
		name:    "imagenet_m7_verified",
		devices: []serve.DeviceConfig{{Name: "m7", Profile: mcu.CortexM7()}},
		models:  []model{{name: "imagenet", net: graph.ImageNet(), weight: 1}},
		clients: 1,
		window:  1,
	},
	{
		// Admission only: no kernel runs, so queue, ledger and variant
		// selection are the whole cost. A window of 64 per client keeps
		// both shards backlogged.
		name: "admission_dryrun",
		devices: []serve.DeviceConfig{
			{Name: "m4", Profile: mcu.CortexM4()},
			{Name: "m7", Profile: mcu.CortexM7()},
		},
		models: []model{
			{name: "vww", net: graph.VWW(), pareto: true, deadline: 100 * time.Millisecond, weight: 7},
			{name: "imagenet", net: graph.ImageNet(), deadline: 100 * time.Millisecond, weight: 1},
		},
		mode:    serve.ExecDryRun,
		clients: 2,
		window:  64,
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func (w *workload) verified() bool { return w.mode == serve.ExecVerify }

// clientCount is the closed loop's client count: the workload's, or fewer
// on a host with fewer CPUs, so the load generator never outnumbers the
// cores.
func (w *workload) clientCount() int { return min(w.clients, runtime.NumCPU()) }

// refProfile is the profile a server prices its Pareto frontier under:
// the fleet's largest-pool device.
func (w *workload) refProfile() mcu.Profile {
	ref := w.devices[0].Profile
	for _, d := range w.devices[1:] {
		if d.Profile.RAMBytes() > ref.RAMBytes() {
			ref = d.Profile
		}
	}
	return ref
}

// profileOf returns the profile of the named device.
func (w *workload) profileOf(device string) (mcu.Profile, bool) {
	for _, d := range w.devices {
		if d.Name == device {
			return d.Profile, true
		}
	}
	return mcu.Profile{}, false
}

// newServer builds the workload's fleet in the server's default
// configuration (tr nil: no tracer, as vmcu-serve defaults) and registers
// its models.
func (w *workload) newServer(tr *obs.Tracer) (*serve.Server, error) {
	s, err := serve.NewServer(serve.Options{Devices: w.devices, Mode: w.mode, Tracer: tr})
	if err != nil {
		return nil, err
	}
	for _, m := range w.models {
		err := s.Register(m.name, m.net, serve.ModelConfig{Pareto: m.pareto, MaxQueueWait: m.deadline})
		if err != nil {
			return nil, errors.Join(err, s.Close())
		}
	}
	return s, nil
}

// request is one generated request: which model, with which seed.
type request struct {
	model int
	seed  int64
}

// generator draws a client's request stream from its seed.
type generator struct {
	w     *workload
	rng   *rand.Rand
	total int
}

func newGenerator(w *workload, seed int64) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed))}
	for _, m := range w.models {
		g.total += m.weight
	}
	return g
}

func (g *generator) next() request {
	pick := g.rng.Intn(g.total)
	mi := 0
	for ; pick >= g.w.models[mi].weight; mi++ {
		pick -= g.w.models[mi].weight
	}
	return request{model: mi, seed: g.rng.Int63()}
}

// setUp builds a fresh server and sends each model one cold request, so
// the returned server is warm. The duration covers server build,
// registration (plan solve and Pareto enumeration) and the cold requests.
func (w *workload) setUp(seeds *rand.Rand, t *tally) (*serve.Server, time.Duration, error) {
	start := time.Now()
	s, err := w.newServer(nil)
	if err != nil {
		return nil, 0, err
	}
	for mi, m := range w.models {
		req := request{model: mi, seed: seeds.Int63()}
		t.attempted++
		tk, err := s.Submit(m.name, serve.SubmitOptions{Seed: req.seed})
		if err != nil {
			t.fail("cold %s: %v", m.name, err)
			continue
		}
		if !resolves(tk) {
			return nil, 0, fmt.Errorf("cold %s: ticket %d unresolved after %v", m.name, tk.ID(), resolveLimit)
		}
		res, err := tk.Result()
		if err := checkResult(w, req, res, err); err != nil {
			t.fail("cold %s: %v", m.name, err)
		}
	}
	return s, time.Since(start), nil
}

// resolves waits up to resolveLimit for a ticket of a request sent on
// its own, and reports whether it resolved.
func resolves(tk *serve.Ticket) bool {
	select {
	case <-tk.Done():
		return true
	case <-time.After(resolveLimit):
		return false
	}
}

// tally counts attempted and failed requests and keeps the first few
// failure descriptions. Each goroutine owns its own tally; merge combines
// them after the goroutines have finished.
type tally struct {
	attempted, failed int
	problems          []string
}

const maxProblems = 8

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < maxProblems {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, p := range o.problems {
		if len(t.problems) < maxProblems {
			t.problems = append(t.problems, p)
		}
	}
}

// loopResult is one closed-loop phase's outcome.
type loopResult struct {
	tally
	completed int
	// unresolved is set when a ticket never resolved: the server cannot
	// be closed then, because Close waits for it.
	unresolved bool
	wall       time.Duration
	allocBytes uint64
	latencyMs  []float64 // sojourn (Result.Latency) sample
	queueMs    []float64 // admission wait (Result.QueueWait) sample
	issued     []request // the first replayCap requests, clients interleaved
}

// Per-client sample bounds: the verified workloads stay far below them,
// so their samples are complete; the dry run keeps a uniform sample.
const (
	sampleCap = 10_000
	replayCap = 4096
	// minCompletions gives the 90th percentile ten samples beyond it; an
	// untraced run measures past --seconds until it has them, for at most
	// maxLoop in all (the ImageNet workload needs about 70 s on a 2-vCPU
	// host).
	minCompletions = 100
	maxLoop        = 75 * time.Second
	// resolveLimit is how long past the loop's end a ticket may stay
	// unresolved before the run fails instead of hanging.
	resolveLimit = 30 * time.Second
)

// closedLoop drives srv with the workload's clients for dur, extended
// until minDone requests have completed, but for no longer than limit.
// Client c draws its requests from clientSeeds[c].
func (w *workload) closedLoop(srv *serve.Server, clientSeeds []int64, dur, limit time.Duration, minDone int) loopResult {
	var done atomic.Int64
	abort := make(chan struct{})
	watchdog := time.AfterFunc(limit+resolveLimit, func() { close(abort) })
	defer watchdog.Stop()

	type clientOut struct {
		tally
		completed  int
		lat, qwait *reservoir
		issued     []request
		unresolved bool
	}
	outs := make([]clientOut, len(clientSeeds))
	for c := range outs {
		rng := rand.New(rand.NewSource(clientSeeds[c] ^ 0x5eed))
		outs[c].lat = newReservoir(sampleCap, rng)
		outs[c].qwait = newReservoir(sampleCap, rng)
		outs[c].issued = make([]request, 0, replayCap)
	}
	checkEvery := 1
	if w.window > 1 {
		checkEvery = 32
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	stop := func() bool {
		el := time.Since(start)
		return el >= limit || (el >= dur && done.Load() >= int64(minDone))
	}
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func(o *clientOut, seed int64) {
			defer wg.Done()
			gen := newGenerator(w, seed)
			type inflight struct {
				tk  *serve.Ticket
				req request
			}
			// ring holds the client's in-flight requests, oldest at head.
			ring := make([]inflight, w.window)
			head, n := 0, 0
			wait := func(f inflight) bool {
				select {
				case <-f.tk.Done():
				case <-abort:
					o.fail("ticket %d (%s) unresolved after %v", f.tk.ID(), w.models[f.req.model].name, limit+resolveLimit)
					o.unresolved = true
					return false
				}
				res, err := f.tk.Result()
				if err := checkResult(w, f.req, res, err); err != nil {
					o.fail("%s seed %d: %v", w.models[f.req.model].name, f.req.seed, err)
					return true
				}
				o.completed++
				done.Add(1)
				o.lat.add(ms(res.Latency))
				o.qwait.add(ms(res.QueueWait))
				return true
			}
			for i := 0; ; i++ {
				if i%checkEvery == 0 && stop() {
					break
				}
				req := gen.next()
				if len(o.issued) < cap(o.issued) {
					o.issued = append(o.issued, req)
				}
				o.attempted++
				tk, err := srv.Submit(w.models[req.model].name, serve.SubmitOptions{Seed: req.seed})
				if err != nil {
					o.fail("submit %s: %v", w.models[req.model].name, err)
					continue
				}
				ring[(head+n)%w.window] = inflight{tk, req}
				if n++; n == w.window {
					if !wait(ring[head]) {
						return
					}
					head, n = (head+1)%w.window, n-1
				}
			}
			for ; n > 0; head, n = (head+1)%w.window, n-1 {
				if !wait(ring[head]) {
					return
				}
			}
		}(&outs[c], clientSeeds[c])
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)

	res := loopResult{wall: wall, allocBytes: ms1.TotalAlloc - ms0.TotalAlloc}
	for c := range outs {
		o := &outs[c]
		res.merge(o.tally)
		res.completed += o.completed
		res.unresolved = res.unresolved || o.unresolved
		res.latencyMs = append(res.latencyMs, o.lat.buf...)
		res.queueMs = append(res.queueMs, o.qwait.buf...)
	}
	for i := 0; len(res.issued) < replayCap; i++ {
		added := false
		for c := range outs {
			if i < len(outs[c].issued) {
				res.issued = append(res.issued, outs[c].issued[i])
				added = true
			}
		}
		if !added {
			break
		}
	}
	return res
}

// overCommits checks the ledger invariant on every device of srv.
func overCommits(srv *serve.Server, t *tally) {
	for _, d := range srv.Metrics().Devices {
		if d.PeakUsedBytes > d.CapacityBytes {
			t.fail("device %s over-committed: peak %d > capacity %d bytes", d.Name, d.PeakUsedBytes, d.CapacityBytes)
		}
	}
}

// classify names a serve error by its sentinel, for failure reports.
func classify(err error) string {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		return "refused (queue full)"
	case errors.Is(err, serve.ErrDeadline):
		return "shed (deadline)"
	case errors.Is(err, serve.ErrTooLarge):
		return "refused (too large)"
	case errors.Is(err, serve.ErrDeviceLost):
		return "device lost"
	case errors.Is(err, serve.ErrCanceled):
		return "canceled"
	case errors.Is(err, serve.ErrClosed):
		return "server closed"
	case errors.Is(err, serve.ErrUnknownModel):
		return "unknown model"
	default:
		return "failed"
	}
}
