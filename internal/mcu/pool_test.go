package mcu

import (
	"reflect"
	"sync"
	"testing"
)

// observed is every externally visible property of a device, gathered
// by probing it through its public methods.
type observed struct {
	Profile     Profile
	Stats       Stats
	RAMSize     int
	Violations  int
	Recorded    int
	Live, Peak  int
	Trace       []int
	FlashUsed   int
	FlashZero   bool // every Flash byte reads as zero
	FlashFits   bool // a blob of exactly the Flash capacity fits
	FlashTight  bool // one byte more does not
	RAMZero     bool // every RAM byte reads as zero
	AllFree     int  // bytes newly claimed when claiming all of RAM
	FirstID     TensorID
	StaleName   string // name of an ID the device has not registered
	TraceAfter  []int  // samples after tagged writes with tracing untouched
	ReadFreedOK bool   // a tagged read of never-written RAM reports ReadFreed
}

// observe probes d; it mutates d, so compare only devices observed the
// same way.
func observe(d *Device, flashBytes int) observed {
	var o observed
	o.Profile, o.Stats, o.RAMSize = d.Profile, d.Stats, d.RAMSize()
	vs, n := d.Violations()
	o.Violations, o.Recorded = n, len(vs)
	o.Live, o.Peak = d.LiveBytes(), d.PeakBytes()
	o.Trace = d.TraceSamples()
	o.FlashUsed = d.FlashUsed()
	o.FlashZero = true
	for _, b := range d.FlashView(0, flashBytes) {
		if b != 0 {
			o.FlashZero = false
		}
	}
	o.RAMZero = true
	ram := make([]byte, d.RAMSize())
	d.ReadRaw(0, ram)
	for _, b := range ram {
		if b != 0 {
			o.RAMZero = false
		}
	}
	o.StaleName = d.TensorName(3)
	o.FirstID = d.NewTensorID("probe")
	dst := make([]byte, 8)
	d.ReadTagged(d.RAMSize()-8, dst, o.FirstID, 0)
	if vs, n := d.Violations(); n == o.Violations+8 && vs[len(vs)-1].Kind == ReadFreed {
		o.ReadFreedOK = true
	}
	before := d.LiveBytes()
	d.ClaimRegion(0, d.RAMSize(), o.FirstID, 0)
	o.AllFree = d.LiveBytes() - before
	d.WriteTagged(0, []byte{1, 2, 3}, o.FirstID, 0)
	o.TraceAfter = d.TraceSamples()
	_, err := d.FlashAlloc(make([]byte, flashBytes))
	o.FlashFits = err == nil
	_, err = d.FlashAlloc([]byte{0})
	o.FlashTight = err != nil
	return o
}

// dirty leaves d in the most used state the executors can reach: tagged
// tensors live, a clobber violation recorded, Flash allocated and read,
// tracing on, names registered and counters charged.
func dirty(t *testing.T, d *Device) {
	t.Helper()
	a := d.NewTensorID("a")
	b := d.NewTensorID("b")
	d.NewTensorID("c")
	d.EnableTrace(1)
	d.WriteTagged(100, []byte{1, 2, 3, 4}, a, 0)
	d.WriteTagged(102, []byte{9, 9}, b, 0) // clobbers a's tail
	d.ReadTagged(100, make([]byte, 4), a, 0)
	d.ClaimRegion(d.RAMSize()-16, 16, b, 2)
	d.Write(d.RAMSize()-1, []byte{7})
	if _, err := d.FlashAlloc([]byte{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	d.FlashView(0, 3)
	d.CountMACs(10)
	d.CountCalls(1)
	if _, n := d.Violations(); n == 0 || d.LiveBytes() == 0 || len(d.TraceSamples()) == 0 {
		t.Fatalf("dirtying left the device clean")
	}
}

// TestPooledDeviceMatchesNew dirties a device and resets it through each
// flash-size transition the executors produce (same, larger, smaller,
// other profile), proving every observable matches a fresh New.
func TestPooledDeviceMatchesNew(t *testing.T) {
	steps := []struct {
		p     Profile
		flash int
	}{
		{CortexM4(), 64},
		{CortexM4(), 4096}, // larger Flash than the previous use
		{CortexM4(), 16},   // smaller
		{CortexM7(), 300},  // another RAM size
	}
	d := New(CortexM4(), 64)
	for _, st := range steps {
		dirty(t, d)
		d.reset(st.p, st.flash)
		got := observe(d, st.flash)
		want := observe(New(st.p, st.flash), st.flash)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reset to %s/%d flash:\n got %+v\nwant %+v", st.p.Name, st.flash, got, want)
		}
		if !got.FlashZero || !got.RAMZero || got.AllFree != got.RAMSize || !got.ReadFreedOK || got.FirstID != 1 {
			t.Fatalf("fresh device not clean: %+v", got)
		}
		d.reset(st.p, st.flash) // the next unit of this shape, dirtied in turn
	}
}

// TestAcquireAfterReleaseMatchesNew goes through the pool itself: whether
// Acquire reuses the released device or builds a new one, the result is
// indistinguishable from New.
func TestAcquireAfterReleaseMatchesNew(t *testing.T) {
	for _, flash := range []int{64, 4096, 16} {
		d := Acquire(CortexM4(), 128)
		dirty(t, d)
		Release(d)
		d = Acquire(CortexM4(), flash)
		got := observe(d, flash)
		Release(d)
		if want := observe(New(CortexM4(), flash), flash); !reflect.DeepEqual(got, want) {
			t.Fatalf("acquired %d-byte-flash device:\n got %+v\nwant %+v", flash, got, want)
		}
	}
}

// TestDevicePoolConcurrent hammers Acquire/Release from several goroutines
// (run under -race): no device is handed to two holders at once, and each
// holder sees a fresh device.
func TestDevicePoolConcurrent(t *testing.T) {
	const workers, rounds = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := CortexM4()
			if w%2 == 1 {
				p = CortexM7()
			}
			buf := make([]byte, 64)
			for r := 0; r < rounds; r++ {
				d := Acquire(p, 32)
				if d.LiveBytes() != 0 || d.Stats != (Stats{}) || d.FlashUsed() != 0 || d.RAMSize() != p.RAMBytes() {
					t.Errorf("worker %d round %d: acquired a used device", w, r)
				}
				id := d.NewTensorID("t")
				d.ReadRaw(1000, buf)
				for _, b := range buf {
					if b != 0 {
						t.Errorf("worker %d round %d: stale RAM", w, r)
						break
					}
				}
				src := []byte{byte(w + 1), byte(r + 1)}
				d.WriteTagged(1000, src, id, 0)
				d.ReadTagged(1000, buf[:2], id, 0)
				if buf[0] != src[0] || buf[1] != src[1] || d.CheckFaults() != nil {
					t.Errorf("worker %d round %d: device shared with another holder", w, r)
				}
				Release(d)
			}
		}(w)
	}
	wg.Wait()
}
