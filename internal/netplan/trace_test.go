package netplan

import (
	"sort"
	"testing"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/obs"
)

// TestCacheTracerCountersAgree churns a bounded cache through LRU
// evictions and proves the tracer's vmcu_plancache_* counters track
// CacheStats exactly — the eviction path is observable, not inferred.
func TestCacheTracerCountersAgree(t *testing.T) {
	tr := obs.New(obs.Options{})
	c := NewCacheWithCap(2)
	c.SetTracer(tr)

	nets := []graph.Network{tinyNet(8), tinyNet(10), tinyNet(12), tinyNet(14)}
	// Two rounds over four keys under a cap of 2: every round-two request
	// misses again (its entry was evicted by the churn), so hits, misses,
	// AND evictions all move.
	for round := 0; round < 2; round++ {
		for _, n := range nets {
			if _, _, err := c.Plan(n, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// And one guaranteed hit on the most recent entry.
	if _, hit, err := c.Plan(nets[len(nets)-1], Options{}); err != nil || !hit {
		t.Fatalf("expected hit on hottest entry (hit=%v err=%v)", hit, err)
	}

	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("churn produced no evictions: %+v", st)
	}
	snap := tr.Snapshot()
	if got := snap.Counters[MetricCacheHits]; got != st.Hits {
		t.Errorf("tracer hits = %d, CacheStats.Hits = %d", got, st.Hits)
	}
	if got := snap.Counters[MetricCacheMisses]; got != st.Misses {
		t.Errorf("tracer misses = %d, CacheStats.Misses = %d", got, st.Misses)
	}
	if got := snap.Counters[MetricCacheEvictions]; got != st.Evictions {
		t.Errorf("tracer evictions = %d, CacheStats.Evictions = %d", got, st.Evictions)
	}
}

// TestPlannerSpans proves a traced Plan records the whole-network solve
// spans and a traced Pareto records its enumeration progress.
func TestPlannerSpans(t *testing.T) {
	tr := obs.New(obs.Options{})
	net := tinyNet(16)
	if _, err := Plan(net, Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	var planSpan *obs.SpanData
	solves := 0
	for i := range snap.Spans {
		s := &snap.Spans[i]
		switch s.Name {
		case "netplan.plan":
			planSpan = s
		case "netplan.solve":
			solves++
		}
	}
	if planSpan == nil || planSpan.Kind != obs.KindPlan {
		t.Fatalf("no netplan.plan span recorded: %+v", snap.Spans)
	}
	if solves == 0 {
		t.Fatal("no netplan.solve spans recorded")
	}
	// Every solve span belongs to a plan span's trace.
	for _, s := range snap.Spans {
		if s.Name == "netplan.solve" && s.Parent == 0 {
			t.Errorf("solve span %d has no parent", s.ID)
		}
	}

	if _, err := Pareto(mcu.CortexM4(), net, Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	snap = tr.Snapshot()
	if snap.Counters[MetricParetoCandidates] == 0 {
		t.Error("Pareto enumerated no candidates on the tracer")
	}
	if snap.Counters[MetricParetoSolved] == 0 {
		t.Error("Pareto solved no candidates on the tracer")
	}
	if snap.Counters[MetricParetoSolved] > snap.Counters[MetricParetoCandidates] {
		t.Errorf("solved %d > candidates %d", snap.Counters[MetricParetoSolved],
			snap.Counters[MetricParetoCandidates])
	}
}

// TestRunTracedUnitSpans proves RunTraced records one KindUnit span per
// executed unit under the given parent/trace IDs, carrying the unit's
// device cycle counters and laying the simulated cycle axis out
// cumulatively: ordered by StartCycles, the unit windows tile
// [0, total cycles) with no gap or overlap. The order of spans within a
// snapshot is not part of the contract (Snapshot orders by wall End, and
// units run concurrently), so the test orders by StartCycles itself.
func TestRunTracedUnitSpans(t *testing.T) {
	tr := obs.New(obs.Options{})
	net := graph.VWW()
	const parentID, traceID = 77, 99
	run, err := RunTraced(mcu.CortexM4(), net, 1, Options{}, NewCache(),
		tr, parentID, traceID, "m4")
	if err != nil {
		t.Fatal(err)
	}
	wantUnits := len(run.Modules) + len(run.Seams)

	var units []obs.SpanData
	for _, s := range tr.Snapshot().Spans {
		if s.Kind == obs.KindUnit {
			units = append(units, s)
		}
	}
	if len(units) != wantUnits {
		t.Fatalf("recorded %d unit spans, want %d", len(units), wantUnits)
	}
	seen := map[string]bool{}
	for _, u := range units {
		if seen[u.Name] {
			t.Errorf("unit %s recorded more than once", u.Name)
		}
		seen[u.Name] = true
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].StartCycles < units[j].StartCycles })
	var total float64
	for _, r := range append(append([]graph.ExecResult(nil), run.Modules...), run.Seams...) {
		total += r.Stats.Cycles(mcu.CortexM4())
	}
	cursor := 0.0
	for _, u := range units {
		if u.Parent != parentID || u.Trace != traceID {
			t.Errorf("unit %s not linked to parent/trace: %+v", u.Name, u)
		}
		if u.Device != "m4" {
			t.Errorf("unit %s device = %q, want m4", u.Name, u.Device)
		}
		if u.StartCycles != cursor || u.EndCycles <= u.StartCycles {
			t.Errorf("unit %s cycle window [%g,%g], want start at %g",
				u.Name, u.StartCycles, u.EndCycles, cursor)
		}
		cursor = u.EndCycles
		var cyc float64
		ok := false
		for _, a := range u.Attrs {
			if a.Key == "cycles" {
				cyc, ok = a.Float, true
			}
		}
		if !ok || cyc <= 0 {
			t.Errorf("unit %s has no positive cycles attribute: %+v", u.Name, u.Attrs)
		}
		if u.End < u.Start {
			t.Errorf("unit %s wall window inverted: %+v", u.Name, u)
		}
	}
	if cursor != total {
		t.Errorf("unit windows end at %g cycles, want the executed total %g", cursor, total)
	}
}

// TestRunUntracedRecordsNothing pins the opt-in contract: the plain Run
// path with no tracer must not record spans anywhere.
func TestRunUntracedRecordsNothing(t *testing.T) {
	if _, err := Run(mcu.CortexM4(), tinyNet(16), 1, Options{}, NewCache()); err != nil {
		t.Fatal(err)
	}
	// Nothing to assert against directly (no tracer exists); the test is
	// that the nil-tracer path executes without touching one — a panic or
	// race here would fail the run.
}
