package mcu

import (
	"strings"
	"testing"
)

func newTestDevice() *Device { return New(CortexM4(), 1<<20) }

func TestRawReadWrite(t *testing.T) {
	d := newTestDevice()
	src := []byte{1, 2, 3, 4}
	d.Write(100, src)
	dst := make([]byte, 4)
	d.Read(100, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("readback mismatch at %d: %d != %d", i, dst[i], src[i])
		}
	}
	if d.Stats.RAMWriteBytes != 4 || d.Stats.RAMReadBytes != 4 {
		t.Errorf("traffic counters wrong: %+v", d.Stats)
	}
}

func TestRawOutOfBounds(t *testing.T) {
	d := newTestDevice()
	d.Write(d.RAMSize()-2, []byte{1, 2, 3})
	_, n := d.Violations()
	if n != 1 {
		t.Fatalf("expected 1 OOB violation, got %d", n)
	}
	vs, _ := d.Violations()
	if vs[0].Kind != OutOfBounds {
		t.Errorf("violation kind = %v, want OutOfBounds", vs[0].Kind)
	}
}

func TestTaggedHappyPath(t *testing.T) {
	d := newTestDevice()
	id := d.NewTensorID("in")
	d.WriteTagged(0, []byte{9, 8, 7}, id, 0)
	dst := make([]byte, 3)
	d.ReadTagged(0, dst, id, 0)
	if err := d.CheckFaults(); err != nil {
		t.Fatalf("unexpected faults: %v", err)
	}
	if dst[0] != 9 || dst[2] != 7 {
		t.Errorf("readback wrong: %v", dst)
	}
}

func TestTaggedClobberDetected(t *testing.T) {
	d := newTestDevice()
	in := d.NewTensorID("in")
	out := d.NewTensorID("out")
	d.WriteTagged(0, []byte{1, 2, 3, 4}, in, 0)
	// Output tensor overwrites bytes 2..3 while input still expects them.
	d.WriteTagged(2, []byte{50, 60}, out, 0)
	dst := make([]byte, 4)
	d.ReadTagged(0, dst, in, 0)
	_, n := d.Violations()
	if n != 2 {
		t.Fatalf("expected 2 clobber violations, got %d", n)
	}
	vs, _ := d.Violations()
	if vs[0].Kind != ReadClobbered || vs[0].GotOwner != out {
		t.Errorf("violation = %+v, want ReadClobbered by %d", vs[0], out)
	}
	if err := d.CheckFaults(); err == nil ||
		!strings.Contains(err.Error(), "read-clobbered") {
		t.Errorf("CheckFaults = %v, want read-clobbered summary", err)
	}
}

func TestTaggedReadFreed(t *testing.T) {
	d := newTestDevice()
	id := d.NewTensorID("t")
	d.WriteTagged(10, []byte{1, 2}, id, 0)
	d.FreeTagged(10, 2, id)
	dst := make([]byte, 2)
	d.ReadTagged(10, dst, id, 0)
	vs, n := d.Violations()
	if n != 2 || vs[0].Kind != ReadFreed {
		t.Fatalf("expected 2 ReadFreed, got %d %v", n, vs)
	}
}

func TestTaggedWrongElem(t *testing.T) {
	d := newTestDevice()
	id := d.NewTensorID("t")
	d.WriteTagged(10, []byte{1, 2}, id, 0)
	dst := make([]byte, 2)
	d.ReadTagged(10, dst, id, 6) // expect elements 6,7 but cells hold 0,1
	vs, n := d.Violations()
	if n != 2 || vs[0].Kind != ReadWrongElem {
		t.Fatalf("expected ReadWrongElem x2, got %d %v", n, vs)
	}
}

func TestFreeStolenBytesIsNoOp(t *testing.T) {
	d := newTestDevice()
	in := d.NewTensorID("in")
	out := d.NewTensorID("out")
	d.WriteTagged(0, []byte{1, 2}, in, 0)
	d.WriteTagged(0, []byte{3, 4}, out, 0) // out steals in's bytes
	d.FreeTagged(0, 2, in)                 // must not free out's live data
	dst := make([]byte, 2)
	d.ReadTagged(0, dst, out, 0)
	if err := d.CheckFaults(); err != nil {
		t.Fatalf("freeing stolen bytes must be a no-op, got %v", err)
	}
}

func TestDoubleFree(t *testing.T) {
	d := newTestDevice()
	id := d.NewTensorID("t")
	d.WriteTagged(0, []byte{1}, id, 0)
	d.FreeTagged(0, 1, id)
	d.FreeTagged(0, 1, id)
	vs, n := d.Violations()
	if n != 1 || vs[0].Kind != DoubleFree {
		t.Fatalf("expected DoubleFree, got %d %v", n, vs)
	}
}

func TestLiveAndPeakWatermark(t *testing.T) {
	d := newTestDevice()
	a := d.NewTensorID("a")
	b := d.NewTensorID("b")
	d.WriteTagged(0, make([]byte, 100), a, 0)
	if d.LiveBytes() != 100 {
		t.Fatalf("live = %d, want 100", d.LiveBytes())
	}
	d.WriteTagged(200, make([]byte, 50), b, 0)
	if d.PeakBytes() != 150 {
		t.Fatalf("peak = %d, want 150", d.PeakBytes())
	}
	d.FreeTagged(0, 100, a)
	if d.LiveBytes() != 50 || d.PeakBytes() != 150 {
		t.Fatalf("live=%d peak=%d, want 50/150", d.LiveBytes(), d.PeakBytes())
	}
	// Overlapping rewrite by b over its own bytes must not double count.
	d.WriteTagged(200, make([]byte, 50), b, 0)
	if d.LiveBytes() != 50 {
		t.Fatalf("live after self rewrite = %d, want 50", d.LiveBytes())
	}
	d.ResetPeak()
	if d.PeakBytes() != 50 {
		t.Fatalf("peak after reset = %d, want 50", d.PeakBytes())
	}
}

func TestClaimRegion(t *testing.T) {
	d := newTestDevice()
	id := d.NewTensorID("in")
	d.Write(0, []byte{5, 6, 7}) // pre-materialized data
	before := d.Stats
	d.ClaimRegion(0, 3, id, 10)
	if d.Stats != before {
		t.Error("ClaimRegion must not count traffic")
	}
	dst := make([]byte, 3)
	d.ReadTagged(0, dst, id, 10)
	if err := d.CheckFaults(); err != nil {
		t.Fatalf("claimed region read failed: %v", err)
	}
	if dst[1] != 6 {
		t.Errorf("claimed data wrong: %v", dst)
	}
}

func TestFlashAllocAndRead(t *testing.T) {
	d := New(CortexM4(), 16)
	ref, err := d.FlashAlloc([]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	dst := d.FlashView(ref.Off, 3)
	if len(dst) != 3 || dst[2] != 3 {
		t.Errorf("flash readback: %v", dst)
	}
	if d.Stats.FlashReadBytes != 3 {
		t.Errorf("flash traffic = %d", d.Stats.FlashReadBytes)
	}
	if v := d.FlashView(ref.Off, 17); len(v) != 17 || v[0] != 0 || d.Stats.FlashReadBytes != 3 {
		t.Errorf("out-of-range view = %v with traffic %d, want 17 zeros and no traffic", v, d.Stats.FlashReadBytes)
	}
	if _, n := d.Violations(); n != 1 {
		t.Errorf("out-of-range view recorded %d violations, want 1", n)
	}
	if _, err := d.FlashAlloc(make([]byte, 14)); err == nil {
		t.Error("expected flash exhaustion error")
	}
	if d.FlashUsed() != 3 {
		t.Errorf("FlashUsed = %d, want 3", d.FlashUsed())
	}
}

func TestReleaseAll(t *testing.T) {
	d := newTestDevice()
	id := d.NewTensorID("t")
	d.WriteTagged(0, make([]byte, 10), id, 0)
	d.ReleaseAll()
	if d.LiveBytes() != 0 || d.PeakBytes() != 0 {
		t.Error("ReleaseAll did not clear accounting")
	}
}

func TestStatsSubAndAdd(t *testing.T) {
	a := Stats{RAMReadBytes: 10, MACs: 5, Calls: 1}
	b := Stats{RAMReadBytes: 4, MACs: 2}
	diff := a.Sub(b)
	if diff.RAMReadBytes != 6 || diff.MACs != 3 || diff.Calls != 1 {
		t.Errorf("Sub wrong: %+v", diff)
	}
	var acc Stats
	acc.Add(a)
	acc.Add(b)
	if acc.RAMReadBytes != 14 || acc.MACs != 7 {
		t.Errorf("Add wrong: %+v", acc)
	}
}

func TestCycleAndEnergyModelMonotonic(t *testing.T) {
	p := CortexM7()
	small := Stats{RAMReadBytes: 100, MACs: 1000}
	big := Stats{RAMReadBytes: 200, MACs: 2000}
	if small.Cycles(p) >= big.Cycles(p) {
		t.Error("cycles not monotonic in work")
	}
	if small.EnergyJoules(p) >= big.EnergyJoules(p) {
		t.Error("energy not monotonic in work")
	}
	if small.LatencySeconds(p) <= 0 {
		t.Error("latency must be positive for nonzero work")
	}
}

func TestProfilesAreDistinct(t *testing.T) {
	m4, m7 := CortexM4(), CortexM7()
	if m4.RAMBytes() != 128*1024 || m7.RAMBytes() != 512*1024 {
		t.Errorf("RAM sizes wrong: %d %d", m4.RAMBytes(), m7.RAMBytes())
	}
	s := Stats{MACs: 1 << 20, RAMReadBytes: 1 << 20}
	if s.LatencySeconds(m7) >= s.LatencySeconds(m4) {
		t.Error("M7 should be faster than M4 for identical work")
	}
}

func TestViolationCapDoesNotGrowUnbounded(t *testing.T) {
	d := newTestDevice()
	id := d.NewTensorID("t")
	dst := make([]byte, 1)
	for i := 0; i < 1000; i++ {
		d.ReadTagged(0, dst, id, 0) // all freed reads
	}
	vs, n := d.Violations()
	if n != 1000 {
		t.Errorf("total count = %d, want 1000", n)
	}
	if len(vs) > maxRecordedViolations {
		t.Errorf("recorded %d > cap %d", len(vs), maxRecordedViolations)
	}
	d.ResetViolations()
	if _, n := d.Violations(); n != 0 {
		t.Error("ResetViolations did not clear")
	}
}

func TestTensorNames(t *testing.T) {
	d := newTestDevice()
	id := d.NewTensorID("activations")
	if d.TensorName(id) != "activations" {
		t.Error("TensorName lost the registered name")
	}
	if d.TensorName(TensorID(999)) == "" {
		t.Error("unknown id should still render something")
	}
}

func TestTraceSampling(t *testing.T) {
	d := newTestDevice()
	id := d.NewTensorID("t")
	d.EnableTrace(2)
	for i := 0; i < 10; i++ {
		d.WriteTagged(i*4, make([]byte, 4), id, i*4)
	}
	samples := d.TraceSamples()
	if len(samples) != 5 {
		t.Fatalf("got %d samples, want 5 (every 2nd of 10 writes)", len(samples))
	}
	// Live bytes grow monotonically here; samples must too.
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			t.Errorf("samples not monotone: %v", samples)
		}
	}
	if samples[len(samples)-1] != 40 {
		t.Errorf("final sample = %d, want 40", samples[len(samples)-1])
	}
	// Frees are sampled too (two frees reach the next sampling tick).
	d.FreeTagged(0, 20, id)
	d.FreeTagged(20, 20, id)
	if s := d.TraceSamples(); s[len(s)-1] != 0 {
		t.Errorf("free not traced: %v", s)
	}
	// Re-enabling resets.
	d.EnableTrace(0) // clamps to 1
	if len(d.TraceSamples()) != 0 {
		t.Error("EnableTrace did not reset samples")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	d := newTestDevice()
	id := d.NewTensorID("t")
	d.WriteTagged(0, make([]byte, 4), id, 0)
	if len(d.TraceSamples()) != 0 {
		t.Error("trace active without EnableTrace")
	}
}
