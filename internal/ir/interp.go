package ir

import (
	"fmt"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// TensorBinding places a program tensor in the pool.
type TensorBinding struct {
	ID  mcu.TensorID
	Off int // logical pool byte offset of element 0
}

// Bindings supplies the runtime interface of a program.
type Bindings struct {
	Tensors map[string]TensorBinding
	Blobs   map[string]mcu.FlashRef
}

// interpState holds the register file during execution.
type interpState struct {
	ctx *intrin.Ctx
	b   Bindings
	env map[string]int
	i8  map[string][]int8
	i32 map[string][]int32
}

// Run interprets the program against the simulated MCU. All intrinsics
// charge the same costs as the hand-written kernels, so interpreted and
// native kernels are directly comparable.
func Run(p *Program, ctx *intrin.Ctx, b Bindings) error {
	for _, t := range p.Tensors {
		if _, ok := b.Tensors[t]; !ok {
			return fmt.Errorf("ir: tensor %q not bound", t)
		}
	}
	for _, bl := range p.Blobs {
		if _, ok := b.Blobs[bl]; !ok {
			return fmt.Errorf("ir: blob %q not bound", bl)
		}
	}
	st := &interpState{
		ctx: ctx, b: b,
		env: map[string]int{},
		i8:  map[string][]int8{},
		i32: map[string][]int32{},
	}
	ctx.Dev.CountCalls(1)
	return st.run(p.Body)
}

func (st *interpState) run(nodes []Node) error {
	for _, n := range nodes {
		if err := st.exec(n); err != nil {
			return err
		}
	}
	return nil
}

func (st *interpState) reg8(name string, n int) []int8 {
	r := st.i8[name]
	if cap(r) < n {
		r = make([]int8, n)
	}
	r = r[:n]
	st.i8[name] = r
	return r
}

func (st *interpState) exec(n Node) error {
	switch v := n.(type) {
	case For:
		for i := 0; i < v.Extent; i++ {
			st.env[v.Var] = i
			if err := st.run(v.Body); err != nil {
				return err
			}
		}
		delete(st.env, v.Var)
		return nil
	case RegAlloc:
		acc := st.i32[v.Name]
		if len(acc) != v.Lanes {
			acc = make([]int32, v.Lanes)
			st.i32[v.Name] = acc
		}
		st.ctx.RegAlloc(acc, 0)
		return nil
	case LoadBias:
		off, err := v.Off.Eval(st.env)
		if err != nil {
			return err
		}
		acc, ok := st.i32[v.Acc]
		if !ok || len(acc) < v.Lanes {
			return fmt.Errorf("ir: accumulator %q not allocated", v.Acc)
		}
		st.ctx.FlashLoadInt32(acc[:v.Lanes], st.b.Blobs[v.Blob], off)
		return nil
	case RAMLoad:
		off, err := v.Off.Eval(st.env)
		if err != nil {
			return err
		}
		tb := st.b.Tensors[v.Tensor]
		dst := st.reg8(v.Dst, v.Bytes)
		st.ctx.RAMLoad(dst, tb.Off+off, tb.ID, off)
		return nil
	case FlashLoad:
		off, err := v.Off.Eval(st.env)
		if err != nil {
			return err
		}
		dst := st.reg8(v.Dst, v.Bytes)
		st.ctx.FlashLoad(dst, st.b.Blobs[v.Blob], off)
		return nil
	case Dot:
		lane, err := v.Lane.Eval(st.env)
		if err != nil {
			return err
		}
		acc, ok := st.i32[v.Acc]
		if !ok || lane < 0 || lane >= len(acc) {
			return fmt.Errorf("ir: bad Dot accumulator %q lane %d", v.Acc, lane)
		}
		a, aok := st.i8[v.A]
		bb, bok := st.i8[v.B]
		if !aok || !bok {
			return fmt.Errorf("ir: Dot operands %q/%q not loaded", v.A, v.B)
		}
		st.ctx.DotVec(a, bb, &acc[lane])
		return nil
	case RequantStore:
		off, err := v.Off.Eval(st.env)
		if err != nil {
			return err
		}
		acc, ok := st.i32[v.Acc]
		if !ok || len(acc) < v.Lanes {
			return fmt.Errorf("ir: accumulator %q not allocated", v.Acc)
		}
		req := tensor.Requant{Mult: v.Mult, Shift: v.Shift, ZeroPoint: v.ZP}
		out := st.reg8("__requant", v.Lanes)
		for i := 0; i < v.Lanes; i++ {
			out[i] = st.ctx.Requantize(acc[i], req)
		}
		tb := st.b.Tensors[v.Tensor]
		st.ctx.RAMStore(tb.Off+off, out, tb.ID, off)
		return nil
	case RAMFree:
		off, err := v.Off.Eval(st.env)
		if err != nil {
			return err
		}
		tb := st.b.Tensors[v.Tensor]
		st.ctx.RAMFree(tb.Off+off, v.Bytes, tb.ID)
		return nil
	default:
		return fmt.Errorf("ir: unknown node %T", n)
	}
}
