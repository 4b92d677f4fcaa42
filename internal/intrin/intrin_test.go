package intrin

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/seg"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

func newCtx(t *testing.T) *Ctx {
	t.Helper()
	dev := mcu.New(mcu.CortexM4(), 1<<16)
	pool, err := seg.NewPool(dev, 0, 4096, 16)
	if err != nil {
		t.Fatal(err)
	}
	return NewCtx(dev, pool)
}

func TestRegAllocZeroAndInit(t *testing.T) {
	c := newCtx(t)
	r := []int32{5, 5, 5, 5, 5, 5, 5, 5}
	c.RegAlloc(r, 0)
	if r[0] != 0 || r[3] != 0 || r[7] != 0 {
		t.Errorf("RegAlloc zero wrong: %v", r)
	}
	r = r[:4]
	c.RegAlloc(r, -7)
	if r[0] != -7 || r[3] != -7 {
		t.Errorf("RegAlloc init wrong: %v", r)
	}
	if c.Dev.Stats.ALUOps != 12 {
		t.Errorf("ALU ops = %d, want 12", c.Dev.Stats.ALUOps)
	}
}

func TestRAMStoreLoadRoundTrip(t *testing.T) {
	c := newCtx(t)
	id := c.Dev.NewTensorID("x")
	src := []int8{-1, 2, -3, 4, 127, -128}
	c.RAMStore(100, src, id, 0)
	dst := make([]int8, 6)
	c.RAMLoad(dst, 100, id, 0)
	if err := c.Dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip mismatch at %d: %d != %d", i, dst[i], src[i])
		}
	}
	if c.Dev.Stats.DivModOps < 2 {
		t.Error("boundary-check modulo ops not charged")
	}
	if c.Dev.Stats.Branches != 2 {
		t.Errorf("branches = %d, want 2", c.Dev.Stats.Branches)
	}
}

func TestRAMLoadWrapsAroundPool(t *testing.T) {
	c := newCtx(t)
	id := c.Dev.NewTensorID("x")
	// Store 8 bytes ending past the pool boundary (cap 4096).
	src := []int8{1, 2, 3, 4, 5, 6, 7, 8}
	c.RAMStore(4092, src, id, 0)
	dst := make([]int8, 8)
	c.RAMLoad(dst, 4092, id, 0)
	if err := c.Dev.CheckFaults(); err != nil {
		t.Fatal(err)
	}
	if dst[7] != 8 {
		t.Errorf("wrapped data wrong: %v", dst)
	}
	// The wrapped tail must physically be at pool offset 0..3.
	head := c.Pool.ReadRawBytes(0, 4)
	if head[0] != 5 || head[3] != 8 {
		t.Errorf("wrapped tail not at pool head: %v", head)
	}
}

func TestRAMFreeReleases(t *testing.T) {
	c := newCtx(t)
	id := c.Dev.NewTensorID("x")
	c.RAMStore(0, make([]int8, 10), id, 0)
	c.RAMFree(0, 10, id)
	if c.Dev.LiveBytes() != 0 {
		t.Errorf("live = %d after free", c.Dev.LiveBytes())
	}
}

func TestFlashLoad(t *testing.T) {
	c := newCtx(t)
	ref, err := c.Dev.FlashAlloc([]byte{0xFF, 0x01, 0x80})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int8, 3)
	c.FlashLoad(dst, ref, 0)
	if dst[0] != -1 || dst[1] != 1 || dst[2] != -128 {
		t.Errorf("flash load wrong: %v", dst)
	}
}

func TestFlashLoadInt32(t *testing.T) {
	c := newCtx(t)
	raw := make([]byte, 8)
	binary.LittleEndian.PutUint32(raw[0:], uint32(123456))
	binary.LittleEndian.PutUint32(raw[4:], uint32(0xFFFFFFFF)) // -1
	ref, err := c.Dev.FlashAlloc(raw)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, 2)
	c.FlashLoadInt32(dst, ref, 0)
	if dst[0] != 123456 || dst[1] != -1 {
		t.Errorf("flash load32 wrong: %v", dst)
	}
}

func TestFlashLoadPanicsOutOfBlob(t *testing.T) {
	c := newCtx(t)
	ref, _ := c.Dev.FlashAlloc([]byte{1, 2})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c.FlashLoad(make([]int8, 3), ref, 0)
}

func TestDotVecMatchesScalar(t *testing.T) {
	c := newCtx(t)
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		n := rng.Intn(33)
		a := make([]int8, n)
		b := make([]int8, n)
		for i := range a {
			a[i] = int8(rng.Intn(255) - 127)
			b[i] = int8(rng.Intn(255) - 127)
		}
		var want int32
		for i := range a {
			want += int32(a[i]) * int32(b[i])
		}
		acc := int32(rng.Intn(100))
		want += acc
		c.DotVec(a, b, &acc)
		if acc != want {
			t.Fatalf("iter %d: DotVec = %d, want %d", iter, acc, want)
		}
	}
}

func TestDotVecChargesMACs(t *testing.T) {
	c := newCtx(t)
	var acc int32
	c.DotVec(make([]int8, 19), make([]int8, 19), &acc)
	if c.Dev.Stats.MACs != 19 {
		t.Errorf("MACs = %d, want 19", c.Dev.Stats.MACs)
	}
}

func TestDot2x2x16(t *testing.T) {
	c := newCtx(t)
	rng := rand.New(rand.NewSource(9))
	a0 := make([]int8, 16)
	a1 := make([]int8, 16)
	b0 := make([]int8, 16)
	b1 := make([]int8, 16)
	for i := 0; i < 16; i++ {
		a0[i] = int8(rng.Intn(255) - 127)
		a1[i] = int8(rng.Intn(255) - 127)
		b0[i] = int8(rng.Intn(255) - 127)
		b1[i] = int8(rng.Intn(255) - 127)
	}
	dot := func(x, y []int8) int32 {
		var s int32
		for i := range x {
			s += int32(x[i]) * int32(y[i])
		}
		return s
	}
	acc := [4]int32{1, 2, 3, 4}
	want := [4]int32{1 + dot(a0, b0), 2 + dot(a0, b1), 3 + dot(a1, b0), 4 + dot(a1, b1)}
	c.Dot(a0, a1, b0, b1, &acc)
	if acc != want {
		t.Errorf("Dot = %v, want %v", acc, want)
	}
	if c.Dev.Stats.MACs != 64 {
		t.Errorf("Dot MACs = %d, want 64 (2x2x16)", c.Dev.Stats.MACs)
	}
}

func TestDotPanics(t *testing.T) {
	c := newCtx(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var acc [4]int32
	c.Dot(make([]int8, 8), make([]int8, 16), make([]int8, 16), make([]int8, 16), &acc)
}

func TestBroadcast(t *testing.T) {
	c := newCtx(t)
	lo, hi := mcu.Lanes16(c.Broadcast(-300))
	if lo != -300 || hi != -300 {
		t.Errorf("Broadcast lanes = %d,%d", lo, hi)
	}
	if c.Dev.Stats.ALUOps != 1 {
		t.Errorf("Broadcast ALU = %d, want 1", c.Dev.Stats.ALUOps)
	}
}

func TestRequantize(t *testing.T) {
	c := newCtx(t)
	req := tensor.NewRequant(0.5, 0)
	if got := c.Requantize(100, req); got != 50 {
		t.Errorf("Requantize = %d, want 50", got)
	}
}

func TestSatAddInt8(t *testing.T) {
	c := newCtx(t)
	if got := c.SatAddInt8(100, 100); got != 127 {
		t.Errorf("SatAdd = %d, want 127", got)
	}
	if got := c.SatAddInt8(-100, -100); got != -128 {
		t.Errorf("SatAdd = %d, want -128", got)
	}
	if got := c.SatAddInt8(3, -5); got != -2 {
		t.Errorf("SatAdd = %d, want -2", got)
	}
}
