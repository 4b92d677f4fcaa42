package intrin

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// The batched intrinsics (DotVec, MatVec, Flash) must be counter-exact
// against the per-call instruction sequence they replace. ref replays
// that sequence — a staged FlashLoad per weight row, the packed
// SXTB16/SMLAD dot in chunks of four with a scalar tail, and one
// Requantize per output — charging a Stats of its own.
type ref struct {
	flash []int8 // the bytes the device's Flash holds
	st    mcu.Stats
}

func (r *ref) flashLoad(dst []int8, off int) {
	copy(dst, r.flash[off:off+len(dst)])
	r.st.FlashReadBytes += uint64(len(dst))
}

func (r *ref) dotVec(a, b []int8, acc *int32) {
	i := 0
	for ; i+4 <= len(a); i += 4 {
		pa := mcu.PackBytes(a[i], a[i+1], a[i+2], a[i+3])
		pb := mcu.PackBytes(b[i], b[i+1], b[i+2], b[i+3])
		*acc = mcu.DotInt8x4(pa, pb, *acc)
		r.st.MACs += 4
		r.st.ALUOps += 4
	}
	for ; i < len(a); i++ {
		*acc += int32(a[i]) * int32(b[i])
		r.st.MACs++
		r.st.ALUOps++
	}
}

func (r *ref) requantize(acc int32, req tensor.Requant) int8 {
	r.st.ALUOps += 4
	return req.Apply(acc)
}

// randInt8 draws int8 values, a quarter of them pinned to the −128/127
// rails where widening and accumulation overflow bugs live.
func randInt8(rng *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		switch rng.Intn(8) {
		case 0:
			out[i] = -128
		case 1:
			out[i] = 127
		default:
			out[i] = int8(rng.Intn(256) - 128)
		}
	}
	return out
}

// flashCtx returns a context whose Flash holds blob (at a nonzero offset,
// behind a filler blob) and the blob's reference.
func flashCtx(t *testing.T, blob []int8) (*Ctx, mcu.FlashRef, *ref) {
	t.Helper()
	c := newCtx(t)
	filler := []byte{0x55, 0xAA, 0x01}
	if _, err := c.Dev.FlashAlloc(filler); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, len(blob))
	for i, v := range blob {
		raw[i] = byte(v)
	}
	fr, err := c.Dev.FlashAlloc(raw)
	if err != nil {
		t.Fatal(err)
	}
	return c, fr, &ref{flash: blob}
}

func TestDotVecCounterExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		n := rng.Intn(70) // covers n%4 == 0..3 and the empty vector
		a, b := randInt8(rng, n), randInt8(rng, n)
		if iter%10 == 0 { // all-rail vectors: the largest products
			for i := range a {
				a[i], b[i] = -128, -128
			}
		}
		c := newCtx(t)
		var r ref
		acc := int32(rng.Uint32())
		want := acc
		c.DotVec(a, b, &acc)
		r.dotVec(a, b, &want)
		if acc != want || c.Dev.Stats != r.st {
			t.Fatalf("n=%d: DotVec = %d with %+v, reference %d with %+v", n, acc, c.Dev.Stats, want, r.st)
		}
	}
}

func TestMatVecCounterExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 200; iter++ {
		k := 1 + rng.Intn(49)
		rows := 1 + rng.Intn(24)
		lead := rng.Intn(3) // rows start mid-blob
		w := randInt8(rng, (lead+rows)*k)
		a := randInt8(rng, k)
		var bias []int32
		if iter%3 != 0 {
			bias = make([]int32, rows)
			for i := range bias {
				bias[i] = int32(rng.Intn(1<<16) - 1<<15)
			}
		}
		req := tensor.NewRequant(0.001+rng.Float64()*0.05, int32(rng.Intn(9)-4))
		c, fr, r := flashCtx(t, w)

		got := make([]int8, rows)
		c.MatVec(got, a, fr, lead*k, bias, req)

		want := make([]int8, rows)
		row := make([]int8, k)
		for n := range want {
			var acc int32
			if bias != nil {
				acc = bias[n]
			}
			r.flashLoad(row, (lead+n)*k)
			r.dotVec(a, row, &acc)
			want[n] = r.requantize(acc, req)
		}
		for n := range want {
			if got[n] != want[n] {
				t.Fatalf("k=%d rows=%d: output %d = %d, want %d", k, rows, n, got[n], want[n])
			}
		}
		if c.Dev.Stats != r.st {
			t.Fatalf("k=%d rows=%d bias=%v: MatVec charged %+v, per-call sequence %+v",
				k, rows, bias != nil, c.Dev.Stats, r.st)
		}
	}
}

func TestFlashViewCounterExact(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 100; iter++ {
		blob := randInt8(rng, 1+rng.Intn(90))
		c, fr, r := flashCtx(t, blob)
		off := rng.Intn(len(blob))
		n := rng.Intn(len(blob) - off + 1)

		view := c.Flash(fr, off, n)
		loaded := make([]int8, n)
		c.FlashLoad(loaded, fr, off)
		want := make([]int8, n)
		r.flashLoad(want, off)
		r.flashLoad(want, off)
		for i := range want {
			if view[i] != want[i] || loaded[i] != want[i] {
				t.Fatalf("byte %d: view %d, load %d, want %d", i, view[i], loaded[i], want[i])
			}
		}
		if len(view) != n || cap(view) != n {
			t.Fatalf("view len/cap %d/%d, want %d (no reach past the read)", len(view), cap(view), n)
		}
		if c.Dev.Stats != r.st {
			t.Fatalf("Flash+FlashLoad charged %+v, reference %+v", c.Dev.Stats, r.st)
		}
	}
}

func TestFlashLoadInt32CounterExact(t *testing.T) {
	vals := []int32{0, 1, -1, 1<<31 - 1, -1 << 31, 123456, -98765}
	raw := make([]int8, 4*len(vals))
	for i, v := range vals {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		for j := range b {
			raw[4*i+j] = int8(b[j])
		}
	}
	c, fr, _ := flashCtx(t, raw)
	got := make([]int32, len(vals)-2)
	c.FlashLoadInt32(got, fr, 2)
	for i := range got {
		if got[i] != vals[i+2] {
			t.Errorf("value %d = %d, want %d", i, got[i], vals[i+2])
		}
	}
	if want := (mcu.Stats{FlashReadBytes: uint64(4 * len(got))}); c.Dev.Stats != want {
		t.Errorf("FlashLoadInt32 charged %+v, want %+v", c.Dev.Stats, want)
	}
}

// TestDotInt8x4MatchesPlainDot pins the arithmetic identity the batched
// DotVec relies on: the packed SXTB16/ROR/SMLAD sequence equals the plain
// int32 dot product, for every accumulator including wraparound.
func TestDotInt8x4MatchesPlainDot(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 10000; iter++ {
		a, b := randInt8(rng, 4), randInt8(rng, 4)
		acc := int32(rng.Uint32())
		got := mcu.DotInt8x4(mcu.PackBytes(a[0], a[1], a[2], a[3]), mcu.PackBytes(b[0], b[1], b[2], b[3]), acc)
		if want := acc + dot(a, b); got != want {
			t.Fatalf("DotInt8x4(%v, %v, %d) = %d, plain dot gives %d", a, b, acc, got, want)
		}
	}
}
