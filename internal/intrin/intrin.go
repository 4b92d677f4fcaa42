// Package intrin implements the paper's kernel-programming intrinsics
// (§6.1): RegAlloc, RAMLoad, FlashLoad, Dot, RAMStore, RAMFree, and
// Broadcast, executed against the simulated MCU with exact operation
// accounting. RAMLoad/RAMStore include the circular-buffer boundary check
// (a modulo, charged by the pool) and a branch; Dot is the fixed-size
// 2×2×16 int8 matrix multiply that lowers to SXTB16/SMLAD sequences on ARM.
// Each intrinsic computes with plain host arithmetic and charges its
// modeled instruction sequence's counters once per call; MatVec fuses the
// pointwise FlashLoad/DotVec/Requantize row loop under the same charges.
package intrin

import (
	"fmt"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/seg"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// Ctx bundles the device and the segment pool a kernel executes against.
type Ctx struct {
	Dev  *mcu.Device
	Pool *seg.Pool

	scratch []byte // reusable staging buffer for loads/stores
}

// NewCtx creates a kernel execution context.
func NewCtx(dev *mcu.Device, pool *seg.Pool) *Ctx {
	return &Ctx{Dev: dev, Pool: pool, scratch: make([]byte, 256)}
}

func (c *Ctx) stage(n int) []byte {
	if cap(c.scratch) < n {
		c.scratch = make([]byte, n)
	}
	return c.scratch[:n]
}

// RegAlloc initializes the register-file accumulator array acc to v,
// charging one zeroing/mov ALU op per lane. The caller owns acc, the way
// a kernel's register allocation is fixed at compile time, so reusing it
// per output pixel allocates nothing.
func (c *Ctx) RegAlloc(acc []int32, v int32) {
	c.Dev.CountALU(len(acc))
	for i := range acc {
		acc[i] = v
	}
}

// RAMLoad loads n bytes of tensor owner at logical pool byte offset off
// (element offset elem0 within the tensor) into dst as int8. The access
// pays the circular boundary check (modulo + branch) plus the RAM traffic.
func (c *Ctx) RAMLoad(dst []int8, off int, owner mcu.TensorID, elem0 int) {
	buf := c.stage(len(dst))
	c.Pool.LoadBytes(off, buf, owner, elem0)
	c.Dev.CountBranches(1)
	for i, b := range buf {
		dst[i] = int8(b)
	}
}

// RAMStore writes src (int8) to logical pool byte offset off, claiming the
// bytes for tensor owner at element offset elem0.
func (c *Ctx) RAMStore(off int, src []int8, owner mcu.TensorID, elem0 int) {
	buf := c.stage(len(src))
	for i, v := range src {
		buf[i] = byte(v)
	}
	c.Pool.StoreBytes(off, buf, owner, elem0)
	c.Dev.CountBranches(1)
}

// RAMFree releases n bytes of tensor owner at logical pool byte offset off.
func (c *Ctx) RAMFree(off, n int, owner mcu.TensorID) {
	c.Pool.FreeBytes(off, n, owner)
	c.Dev.CountBranches(1)
}

// Flash returns n int8 weights of blob ref starting at element off as a
// read-only view of device Flash, charging n bytes of Flash traffic —
// FlashLoad without the copy, for kernels that consume weights in place.
func (c *Ctx) Flash(ref mcu.FlashRef, off, n int) []int8 {
	if off < 0 || n < 0 || off+n > ref.Len {
		panic(fmt.Sprintf("intrin: flash load [%d,%d) outside blob of %d bytes", off, off+n, ref.Len))
	}
	return c.Dev.FlashView(ref.Off+off, n)
}

// FlashLoad reads len(dst) int8 weights from Flash at ref.Off+off into dst.
func (c *Ctx) FlashLoad(dst []int8, ref mcu.FlashRef, off int) {
	copy(dst, c.Flash(ref, off, len(dst)))
}

// FlashLoadInt32 reads n little-endian int32 values (bias vectors) from
// Flash at ref.Off + 4*off.
func (c *Ctx) FlashLoadInt32(dst []int32, ref mcu.FlashRef, off int) {
	b := c.Flash(ref, 4*off, 4*len(dst))
	for i := range dst {
		dst[i] = int32(uint32(uint8(b[4*i])) | uint32(uint8(b[4*i+1]))<<8 |
			uint32(uint8(b[4*i+2]))<<16 | uint32(uint8(b[4*i+3]))<<24)
	}
}

// Broadcast splats a 16-bit constant across both SIMD lanes (PKHBT).
func (c *Ctx) Broadcast(v int16) uint32 {
	c.Dev.CountALU(1)
	return mcu.Broadcast16(v)
}

// DotVec accumulates the int8 dot product of a and b into *acc. On the
// MCU it is the packed SXTB16/SMLAD sequence in chunks of four with single
// MACs for the scalar tail (mcu.DotInt8x4); the host computes the same
// int32 sum directly, since the packed lanes never overflow and int32
// addition is exact mod 2³². The charge is that sequence's total: per
// element one MAC (two per SMLAD, two SMLADs per chunk) and one widening
// ALU op (SXTB16 + ROR per chunk of four), charged once per call.
func (c *Ctx) DotVec(a, b []int8, acc *int32) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("intrin: dot of mismatched lengths %d, %d", len(a), len(b)))
	}
	*acc += dot(a, b)
	c.Dev.CountMACs(len(a))
	c.Dev.CountALU(len(a))
}

// dot is the plain int32 dot product of equal-length int8 vectors.
func dot(a, b []int8) int32 {
	b = b[:len(a)]
	var s int32
	for i, v := range a {
		s += int32(v) * int32(b[i])
	}
	return s
}

// MatVec is the fused pointwise mat-vec: for each output channel n,
//
//	dst[n] = requant(bias[n] + a · W[n])
//
// where W[n] is the n-th len(a)-element row of blob ref starting at
// element off (output-major weights, CMSIS convention) and a nil bias
// starts from zero. It charges exactly what len(dst) rounds of FlashLoad,
// DotVec and Requantize charge, once per call.
func (c *Ctx) MatVec(dst, a []int8, ref mcu.FlashRef, off int, bias []int32, req tensor.Requant) {
	k := len(a)
	if bias != nil && len(bias) != len(dst) {
		panic(fmt.Sprintf("intrin: mat-vec bias of %d for %d outputs", len(bias), len(dst)))
	}
	w := c.Flash(ref, off, len(dst)*k)
	for n := range dst {
		var acc int32
		if bias != nil {
			acc = bias[n]
		}
		dst[n] = req.Apply(acc + dot(a, w[n*k:(n+1)*k]))
	}
	c.Dev.CountMACs(len(dst) * k)
	c.Dev.CountALU(len(dst) * (k + requantALU))
}

// Dot is the paper's fixed-size 2×2×16 matrix-multiply intrinsic:
// two int8 activation rows (16 deep) against two int8 weight rows
// (16 deep), accumulating the four dot products into acc:
//
//	acc[0] += a0·b0   acc[1] += a0·b1
//	acc[2] += a1·b0   acc[3] += a1·b1
//
// On ARM it lowers to a SADD16/SMLAD instruction sequence; here it charges
// the equivalent 64 MACs plus widening ops.
func (c *Ctx) Dot(a0, a1, b0, b1 []int8, acc *[4]int32) {
	if len(a0) != 16 || len(a1) != 16 || len(b0) != 16 || len(b1) != 16 {
		panic("intrin: Dot requires 16-element operands")
	}
	c.DotVec(a0, b0, &acc[0])
	c.DotVec(a0, b1, &acc[1])
	c.DotVec(a1, b0, &acc[2])
	c.DotVec(a1, b1, &acc[3])
}

// requantALU is the ALU charge of one Requantize.
const requantALU = 4

// Requantize converts an int32 accumulator to int8 output, charging the
// fixed-point multiply/shift/saturate sequence (~4 ALU ops).
func (c *Ctx) Requantize(acc int32, req tensor.Requant) int8 {
	c.Dev.CountALU(requantALU)
	return req.Apply(acc)
}

// SatAddInt8 performs the saturating int8 addition used by residual add
// layers, charging one ALU op (the ARM QADD8 lane op).
func (c *Ctx) SatAddInt8(a, b int8) int8 {
	c.Dev.CountALU(1)
	return tensor.SaturateInt8(int32(a) + int32(b))
}
