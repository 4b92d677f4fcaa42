package kernels

import (
	"fmt"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// AvgPool is the global average pooling head used between an MCUNet
// backbone and its classifier: H×W×C → 1×1×C with round-half-away
// integer division. The single output pixel is written over the freed
// start of the input (in-place at segment granularity).
type AvgPool struct {
	H, W, C int
}

// Plan returns the head's memory plan: the output (C bytes) needs no
// empty segments because every input byte is consumed before the single
// store happens.
func (k *AvgPool) Plan() plan.Plan {
	in := k.H * k.W * k.C
	return plan.Plan{
		SegBytes:       k.C,
		InBytes:        in,
		OutBytes:       k.C,
		GapSegs:        0,
		FootprintBytes: in,
		Note:           fmt.Sprintf("global avgpool %dx%dx%d", k.H, k.W, k.C),
	}
}

// Run executes the pooling, freeing input rows as they are consumed.
func (k *AvgPool) Run(c *intrin.Ctx, p plan.Plan, in Placement) (Placement, error) {
	if k.H <= 0 || k.W <= 0 || k.C <= 0 {
		return Placement{}, fmt.Errorf("kernels: avgpool dims invalid: %+v", k)
	}
	if err := checkSize("avgpool input", in.Bytes, k.H*k.W*k.C); err != nil {
		return Placement{}, err
	}
	outID := c.Dev.NewTensorID("avgpool.out")
	c.Dev.CountCalls(1)
	acc := make([]int32, k.C)
	c.RegAlloc(acc, 0)
	buf := make([]int8, k.C)
	for h := 0; h < k.H; h++ {
		for w := 0; w < k.W; w++ {
			elem := (h*k.W + w) * k.C
			c.RAMLoad(buf, in.Off+elem, in.ID, elem)
			for cc := 0; cc < k.C; cc++ {
				acc[cc] += int32(buf[cc])
			}
			c.Dev.CountALU(k.C)
		}
		c.RAMFree(in.Off+h*k.W*k.C, k.W*k.C, in.ID)
	}
	n := int32(k.H * k.W)
	out := make([]int8, k.C)
	for cc := 0; cc < k.C; cc++ {
		v := acc[cc]
		if v >= 0 {
			v = (v + n/2) / n
		} else {
			v = -((-v + n/2) / n)
		}
		out[cc] = int8(v)
		c.Dev.CountALU(2) // rounding add + divide
	}
	c.RAMStore(in.Off-p.GapBytes(), out, outID, 0)
	return Placement{ID: outID, Off: in.Off - p.GapBytes(), Bytes: k.C}, nil
}

// GoldenAvgPool is the reference implementation.
func GoldenAvgPool(in []int8, h, w, c int) []int8 {
	if len(in) != h*w*c {
		panic("golden: avgpool size mismatch")
	}
	out := make([]int8, c)
	n := int32(h * w)
	for cc := 0; cc < c; cc++ {
		var acc int32
		for p := 0; p < h*w; p++ {
			acc += int32(in[p*c+cc])
		}
		if acc >= 0 {
			acc = (acc + n/2) / n
		} else {
			acc = -((-acc + n/2) / n)
		}
		out[cc] = int8(acc)
	}
	return out
}
