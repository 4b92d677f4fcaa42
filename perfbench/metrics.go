package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's output schema; BENCHMARK.json at the repository
// root must name exactly these metrics with these units (the self-test
// checks it).
type metricDef struct {
	name, unit string
	// executed marks a per-layer metric of kernel execution, which the
	// dry run does not do: it reports 0 there.
	executed bool
}

// endToEnd are the untraced (--trace 0) metrics. Every one is non-zero on
// every workload.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", false},
	{"latency_p50_ms", "ms", false},
	{"latency_p90_ms", "ms", false},
	{"setup_s", "s", false},
	{"alloc_kb_per_req", "KB", false},
}

// perLayer are the traced (--trace 1) metrics. A layer that does not run
// on a workload reports 0 (for example every graph/kernels/mcu metric on
// the dry run, which executes no kernel).
var perLayer = []metricDef{
	{"error_rate", "ratio", false},
	{"plan_peak_kb", "KB", true},
	{"sim_latency_ms", "sim-ms", true},
	{"sim_energy_mj", "mJ", true},
	{"graph.fused.ms", "ms", true},
	{"graph.fused.units", "count", true},
	{"graph.fused.alloc_kb", "KB", true},
	{"graph.seam.ms", "ms", true},
	{"graph.seam.units", "count", true},
	{"graph.seam.alloc_kb", "KB", true},
	{"graph.split.ms", "ms", true},
	{"graph.split.units", "count", true},
	{"graph.split.alloc_kb", "KB", true},
	{"graph.unfused.ms", "ms", true},
	{"graph.unfused.units", "count", true},
	{"graph.unfused.alloc_kb", "KB", true},
	{"kernels.golden_ms", "ms", true},
	{"kernels.golden_share", "ratio", true},
	{"mcu.device_new_ms", "ms", true},
	{"mcu.device_alloc_kb", "KB", true},
	{"mcu.sim_mcycles", "Mcycles", true},
	{"mcu.macs_m", "M", true},
	{"mcu.ram_read_kb", "KB", true},
	{"mcu.ram_write_kb", "KB", true},
	{"netplan.run_ms", "ms", true},
	{"netplan.parallel_efficiency", "ratio", true},
	{"netplan.plan_lookup_us", "us", true},
	{"netplan.cache_hit_ratio", "ratio", false},
	{"netplan.cold_plan_ms", "ms", false},
	{"netplan.pareto_ms", "ms", false},
	{"cost.estimate_us", "us", false},
	{"cost.cycles_residual_pct", "%", false},
	{"serve.submit_us", "us", false},
	{"serve.roundtrip_us", "us", false},
	{"serve.queue_wait_ms", "ms", false},
	{"serve.queue_high_water", "count", false},
	{"serve.variant_upgrade_ratio", "ratio", false},
	{"serve.degraded_ratio", "ratio", false},
	{"obs.sampled_tax_pct", "%", false},
	{"trace.unaccounted_pct", "%", false},
}

// metricValue is one emitted metric, as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit builds the metrics object for defs from vals, which must hold a
// value for every name (a missing one is a benchmark bug, reported as an
// error by the caller's completeness check).
func emit(defs []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, missing
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place);
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func kb(bytes uint64) float64 { return float64(bytes) / 1024 }

// reservoir keeps a uniform sample of at most cap(buf) values out of an
// unbounded stream (Vitter's algorithm R), so a dry-run client recording
// hundreds of thousands of sojourns allocates nothing while it measures.
type reservoir struct {
	buf  []float64
	seen int64
	rng  *rand.Rand
}

func newReservoir(capacity int, rng *rand.Rand) *reservoir {
	return &reservoir{buf: make([]float64, 0, capacity), rng: rng}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(cap(r.buf)) {
		r.buf[j] = v
	}
}
