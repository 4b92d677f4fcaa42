package mcu

import (
	"errors"
	"fmt"
	"sync"
)

// TensorID identifies a logical tensor for shadow-state tracking.
// ID 0 is reserved for "free / untracked".
type TensorID int32

// FreeOwner is the shadow owner of unclaimed RAM bytes.
const FreeOwner TensorID = 0

// cell is the shadow metadata of one RAM byte.
type cell struct {
	owner TensorID
	elem  int32 // element index within the owner tensor
}

// ViolationKind classifies a detected memory-safety fault.
type ViolationKind int

const (
	// ReadClobbered: a tagged read found a byte owned by a different
	// tensor — the paper's "silent error" when the output overwrites
	// still-live input segments.
	ReadClobbered ViolationKind = iota
	// ReadFreed: a tagged read found a byte already freed.
	ReadFreed
	// ReadWrongElem: owner matches but the element index does not —
	// the segment was recycled for a different part of the same tensor.
	ReadWrongElem
	// OutOfBounds: an access fell outside the RAM or Flash array.
	OutOfBounds
	// DoubleFree: freeing a byte not owned by the caller.
	DoubleFree
)

func (k ViolationKind) String() string {
	switch k {
	case ReadClobbered:
		return "read-clobbered"
	case ReadFreed:
		return "read-freed"
	case ReadWrongElem:
		return "read-wrong-elem"
	case OutOfBounds:
		return "out-of-bounds"
	case DoubleFree:
		return "double-free"
	}
	return fmt.Sprintf("violation(%d)", int(k))
}

// Violation records one detected fault.
type Violation struct {
	Kind      ViolationKind
	Addr      int
	WantOwner TensorID
	GotOwner  TensorID
	WantElem  int32
	GotElem   int32
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at addr %d: want tensor %d elem %d, got tensor %d elem %d",
		v.Kind, v.Addr, v.WantOwner, v.WantElem, v.GotOwner, v.GotElem)
}

const maxRecordedViolations = 64

// Device is a simulated microcontroller: RAM with shadow state, Flash,
// and operation counters evaluated by the Profile's cycle/energy model.
// Device is not safe for concurrent use, matching the single-core,
// no-OS execution model of the target hardware.
type Device struct {
	Profile Profile
	Stats   Stats

	// RAM storage grows on first touch: ram and shadow hold the touched
	// prefix of the ramSize-byte address space, and every byte past it
	// (including the spare capacity) is zero and free, exactly as on a
	// fresh device. A device therefore costs host memory only for the RAM
	// its kernels address.
	ramSize   int
	ram       []byte
	shadow    []cell
	flash     []int8
	flashUsed int

	nextTensorID TensorID
	tensorNames  map[TensorID]string

	violations     []Violation
	violationCount int

	liveBytes int // currently claimed RAM bytes
	peakBytes int // watermark of claimed RAM bytes

	traceEvery int   // sample the live count every N mutating ops
	traceCount int   // mutating ops since EnableTrace
	trace      []int // live-byte samples
}

// New creates a Device with the profile's RAM size and the given Flash
// capacity in bytes.
func New(p Profile, flashBytes int) *Device {
	d := &Device{tensorNames: map[TensorID]string{}}
	d.reset(p, flashBytes)
	return d
}

// devicePools recycles devices per RAM size (the executors build one
// device per verified unit, thousands per second under load).
var devicePools sync.Map // RAM bytes -> *sync.Pool of *Device

// Acquire returns a device indistinguishable from New(p, flashBytes):
// RAM zeroed and free, counters, violations, tensor IDs and names,
// live/peak watermarks and trace state reset, and flashBytes of empty
// Flash. It reuses the storage of a device handed back by Release when
// one of the same RAM size is available. Pair every Acquire with one
// Release once nothing references the device any more.
func Acquire(p Profile, flashBytes int) *Device {
	if d, ok := devicePool(p.RAMBytes()).Get().(*Device); ok {
		d.reset(p, flashBytes)
		return d
	}
	return New(p, flashBytes)
}

// Release hands d back for reuse by Acquire. The caller must not touch d
// (or slices it returned, such as Violations) afterwards.
func Release(d *Device) { devicePool(d.ramSize).Put(d) }

func devicePool(ramBytes int) *sync.Pool {
	if p, ok := devicePools.Load(ramBytes); ok {
		return p.(*sync.Pool)
	}
	p, _ := devicePools.LoadOrStore(ramBytes, new(sync.Pool))
	return p.(*sync.Pool)
}

// reset restores the state New produces, keeping allocated storage. The
// storage invariant (zero past the touched prefix) makes clearing the
// touched prefix enough.
func (d *Device) reset(p Profile, flashBytes int) {
	clear(d.ram)
	clear(d.shadow)
	d.Profile = p
	d.Stats = Stats{}
	d.ramSize = p.RAMBytes()
	d.ram, d.shadow = d.ram[:0], d.shadow[:0]
	if cap(d.flash) >= flashBytes {
		clear(d.flash[:cap(d.flash)])
		d.flash = d.flash[:flashBytes]
	} else {
		d.flash = make([]int8, flashBytes)
	}
	d.flashUsed = 0
	d.nextTensorID = 1
	clear(d.tensorNames)
	d.violations, d.violationCount = nil, 0
	d.liveBytes, d.peakBytes = 0, 0
	d.traceEvery, d.traceCount, d.trace = 0, 0, nil
}

// RAMSize returns the RAM capacity in bytes.
func (d *Device) RAMSize() int { return d.ramSize }

// NewTensorID registers a logical tensor for shadow tracking.
func (d *Device) NewTensorID(name string) TensorID {
	id := d.nextTensorID
	d.nextTensorID++
	d.tensorNames[id] = name
	return id
}

// TensorName returns the registered name for an ID (for diagnostics).
func (d *Device) TensorName(id TensorID) string {
	if n, ok := d.tensorNames[id]; ok {
		return n
	}
	return fmt.Sprintf("tensor#%d", id)
}

func (d *Device) record(v Violation) {
	d.violationCount++
	if len(d.violations) < maxRecordedViolations {
		d.violations = append(d.violations, v)
	}
}

// Violations returns the recorded faults (capped) and the total count.
func (d *Device) Violations() ([]Violation, int) {
	return d.violations, d.violationCount
}

// ResetViolations clears the fault log.
func (d *Device) ResetViolations() {
	d.violations = nil
	d.violationCount = 0
}

// CheckFaults returns an error summarizing violations, or nil if clean.
func (d *Device) CheckFaults() error {
	if d.violationCount == 0 {
		return nil
	}
	first := d.violations[0]
	return fmt.Errorf("mcu: %d memory violations, first: %s (owner %q vs %q)",
		d.violationCount, first, d.TensorName(first.WantOwner), d.TensorName(first.GotOwner))
}

// access validates [addr, addr+n) against the RAM capacity, recording an
// OutOfBounds violation when it falls outside, and makes the range
// addressable in the touched prefix.
func (d *Device) access(addr, n int) bool {
	if addr < 0 || n < 0 || addr+n > d.ramSize {
		d.record(Violation{Kind: OutOfBounds, Addr: addr})
		return false
	}
	if end := addr + n; end > len(d.ram) {
		d.grow(end)
	}
	return true
}

// grow extends the touched prefix to at least end bytes, at least doubling
// it (page-rounded, capped at the capacity) so growth stays amortized.
func (d *Device) grow(end int) {
	const page = 4096
	n := max(end, 2*len(d.ram))
	n = min((n+page-1)/page*page, d.ramSize)
	if n <= cap(d.ram) {
		// Spare capacity is zero and free by the storage invariant.
		d.ram, d.shadow = d.ram[:n], d.shadow[:n]
		return
	}
	ram := make([]byte, n)
	copy(ram, d.ram)
	shadow := make([]cell, n)
	copy(shadow, d.shadow)
	d.ram, d.shadow = ram, shadow
}

// ErrOutOfMemory is returned when an allocation exceeds RAM capacity.
var ErrOutOfMemory = errors.New("mcu: out of RAM")

// --- Raw (untracked) access: used by baseline kernels. ---

// Read copies n bytes at addr into dst, counting RAM read traffic.
func (d *Device) Read(addr int, dst []byte) {
	if !d.access(addr, len(dst)) {
		return
	}
	copy(dst, d.ram[addr:addr+len(dst)])
	d.Stats.RAMReadBytes += uint64(len(dst))
}

// Write copies src into RAM at addr, counting RAM write traffic.
func (d *Device) Write(addr int, src []byte) {
	if !d.access(addr, len(src)) {
		return
	}
	copy(d.ram[addr:addr+len(src)], src)
	d.Stats.RAMWriteBytes += uint64(len(src))
}

// ReadRaw copies RAM bytes without counting traffic (setup/extraction
// helper for tests and harnesses; not part of the modeled execution).
func (d *Device) ReadRaw(addr int, dst []byte) {
	if !d.access(addr, len(dst)) {
		return
	}
	copy(dst, d.ram[addr:addr+len(dst)])
}

// WriteRaw copies bytes into RAM without counting traffic (setup helper).
func (d *Device) WriteRaw(addr int, src []byte) {
	if !d.access(addr, len(src)) {
		return
	}
	copy(d.ram[addr:addr+len(src)], src)
}

// --- Tagged access: used by vMCU segment kernels. ---

// ClaimRegion tags [addr, addr+n) as owned by tensor id with element
// indices starting at elem0, without touching data or counting traffic
// (initial placement of an already-materialized tensor).
func (d *Device) ClaimRegion(addr, n int, id TensorID, elem0 int) {
	if !d.access(addr, n) {
		return
	}
	d.claim(addr, n, id, elem0)
}

// claim tags [addr, addr+n) as (id, elem0...) and updates the live and
// peak watermarks. The range must already be validated.
func (d *Device) claim(addr, n int, id TensorID, elem0 int) {
	sh := d.shadow[addr : addr+n]
	fresh := 0
	for i := range sh {
		if sh[i].owner == FreeOwner {
			fresh++
		}
		sh[i] = cell{owner: id, elem: int32(elem0 + i)}
	}
	d.liveBytes += fresh
	if d.liveBytes > d.peakBytes {
		d.peakBytes = d.liveBytes
	}
}

// WriteTagged writes src at addr and tags the bytes as (id, elem0...).
// Overwriting bytes owned by another tensor is legal — that is the entire
// point of segment overlapping — but the previous owner's subsequent tagged
// reads of those bytes will be flagged.
func (d *Device) WriteTagged(addr int, src []byte, id TensorID, elem0 int) {
	if !d.access(addr, len(src)) {
		return
	}
	copy(d.ram[addr:addr+len(src)], src)
	d.claim(addr, len(src), id, elem0)
	d.Stats.RAMWriteBytes += uint64(len(src))
	d.traceTick()
}

// ReadTagged reads n bytes at addr into dst, asserting every byte is still
// owned by tensor id with consecutive element indices from elem0. Each
// mismatched byte records a violation; data is returned regardless, exactly
// like real hardware would hand back clobbered memory.
func (d *Device) ReadTagged(addr int, dst []byte, id TensorID, elem0 int) {
	if !d.access(addr, len(dst)) {
		return
	}
	copy(dst, d.ram[addr:addr+len(dst)])
	for i, c := range d.shadow[addr : addr+len(dst)] {
		if want := int32(elem0 + i); c.owner != id || c.elem != want {
			d.readFault(addr+i, c, id, want)
		}
	}
	d.Stats.RAMReadBytes += uint64(len(dst))
}

// readFault records why a tagged read of addr, expecting (id, want),
// found cell c instead.
func (d *Device) readFault(addr int, c cell, id TensorID, want int32) {
	switch {
	case c.owner == FreeOwner:
		d.record(Violation{Kind: ReadFreed, Addr: addr,
			WantOwner: id, WantElem: want})
	case c.owner != id:
		d.record(Violation{Kind: ReadClobbered, Addr: addr,
			WantOwner: id, GotOwner: c.owner,
			WantElem: want, GotElem: c.elem})
	default:
		d.record(Violation{Kind: ReadWrongElem, Addr: addr,
			WantOwner: id, GotOwner: c.owner,
			WantElem: want, GotElem: c.elem})
	}
}

// FreeTagged releases [addr, addr+n) owned by id. Bytes already stolen by
// a later tensor are left untouched (they are live for the new owner);
// bytes owned by an unrelated tensor record a DoubleFree.
func (d *Device) FreeTagged(addr, n int, id TensorID) {
	if !d.access(addr, n) {
		return
	}
	sh := d.shadow[addr : addr+n]
	for i := range sh {
		switch sh[i].owner {
		case id:
			sh[i] = cell{}
			d.liveBytes--
		case FreeOwner:
			d.record(Violation{Kind: DoubleFree, Addr: addr + i, WantOwner: id})
		default:
			// Stolen by a newer tensor: freeing is a no-op, by design.
		}
	}
	d.traceTick()
}

// EnableTrace starts sampling the live-byte count once every sampleEvery
// tagged writes/frees, for memory-timeline visualization (the occupancy
// evolution the paper's Figure 1 illustrates step by step).
func (d *Device) EnableTrace(sampleEvery int) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	d.traceEvery = sampleEvery
	d.traceCount = 0
	d.trace = d.trace[:0]
}

// TraceSamples returns the recorded live-byte samples.
func (d *Device) TraceSamples() []int {
	return append([]int(nil), d.trace...)
}

func (d *Device) traceTick() {
	if d.traceEvery == 0 {
		return
	}
	d.traceCount++
	if d.traceCount%d.traceEvery == 0 {
		d.trace = append(d.trace, d.liveBytes)
	}
}

// LiveBytes returns the currently claimed RAM bytes.
func (d *Device) LiveBytes() int { return d.liveBytes }

// PeakBytes returns the high-watermark of claimed RAM bytes.
func (d *Device) PeakBytes() int { return d.peakBytes }

// ResetPeak restarts the watermark from the current live amount.
func (d *Device) ResetPeak() { d.peakBytes = d.liveBytes }

// ReleaseAll clears all shadow ownership (between independent experiments).
func (d *Device) ReleaseAll() {
	for i := range d.shadow {
		d.shadow[i] = cell{}
	}
	d.liveBytes = 0
	d.peakBytes = 0
}

// --- Flash. ---

// FlashRef locates a constant blob in Flash.
type FlashRef struct {
	Off int
	Len int
}

// FlashAlloc copies data into Flash and returns its location. Weights and
// biases live here; per the paper they are excluded from RAM planning.
func (d *Device) FlashAlloc(data []byte) (FlashRef, error) {
	if d.flashUsed+len(data) > len(d.flash) {
		return FlashRef{}, fmt.Errorf("mcu: flash exhausted (%d + %d > %d)",
			d.flashUsed, len(data), len(d.flash))
	}
	ref := FlashRef{Off: d.flashUsed, Len: len(data)}
	for i, b := range data {
		d.flash[ref.Off+i] = int8(b)
	}
	d.flashUsed += len(data)
	return ref, nil
}

// FlashView returns Flash bytes [off, off+n) as int8 in place, counting
// n bytes of Flash read traffic: kernels read weights straight from
// Flash, as the MCU does, with no staging copy. The view is read-only by
// contract and valid until the device is reset. An out-of-range view
// records an OutOfBounds violation and reads as zeros.
func (d *Device) FlashView(off, n int) []int8 {
	if off < 0 || n < 0 || off+n > len(d.flash) {
		d.record(Violation{Kind: OutOfBounds, Addr: off})
		return make([]int8, max(n, 0))
	}
	d.Stats.FlashReadBytes += uint64(n)
	return d.flash[off : off+n : off+n]
}

// FlashUsed returns the bytes of Flash currently allocated.
func (d *Device) FlashUsed() int { return d.flashUsed }

// --- Op accounting hooks used by the intrinsics layer. ---

// CountMACs adds n multiply-accumulates.
func (d *Device) CountMACs(n int) { d.Stats.MACs += uint64(n) }

// CountALU adds n generic ALU operations.
func (d *Device) CountALU(n int) { d.Stats.ALUOps += uint64(n) }

// CountDivMod adds n modulo/divide operations (circular addressing).
func (d *Device) CountDivMod(n int) { d.Stats.DivModOps += uint64(n) }

// CountBranches adds n taken branches.
func (d *Device) CountBranches(n int) { d.Stats.Branches += uint64(n) }

// CountCalls adds n function-call overheads.
func (d *Device) CountCalls(n int) { d.Stats.Calls += uint64(n) }
