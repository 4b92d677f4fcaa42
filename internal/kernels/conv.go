package kernels

import (
	"fmt"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// Conv2D is the paper's segment-aware 2-D convolution kernel (Figure 5):
// direct (im2col-free) NHWC convolution whose output pixels stream into
// pool space freed from the input as the window slides past it. Weights
// are [K][R][S][C] in Flash; bias is [K] int32.
type Conv2D struct {
	Spec   plan.Conv2DSpec
	Weight mcu.FlashRef
	Bias   mcu.FlashRef
	Req    tensor.Requant
}

// Plan returns the §4 memory plan for this layer.
func (k *Conv2D) Plan() plan.Plan { return plan.Conv2D(k.Spec) }

// Validate checks tensor sizes.
func (k *Conv2D) Validate() error {
	if err := k.Spec.Validate(); err != nil {
		return err
	}
	sp := k.Spec
	if err := checkSize("conv2d weight", k.Weight.Len, sp.K*sp.R*sp.S*sp.C); err != nil {
		return err
	}
	if k.Bias.Len != 0 {
		return checkSize("conv2d bias", k.Bias.Len, 4*sp.K)
	}
	return nil
}

// Run executes the convolution. Input rows are freed as soon as the
// sliding window no longer reaches them, which is the invariant the
// planner's pixel scan assumes.
func (k *Conv2D) Run(c *intrin.Ctx, p plan.Plan, in Placement) (Placement, error) {
	if err := k.Validate(); err != nil {
		return Placement{}, err
	}
	sp := k.Spec
	if err := checkSize("conv2d input", in.Bytes, sp.H*sp.W*sp.C); err != nil {
		return Placement{}, err
	}
	oh, ow := sp.OutDims()
	outID := c.Dev.NewTensorID("conv.out")
	outOff := in.Off - p.GapBytes()
	c.Dev.CountCalls(1)

	aBuf := make([]int8, sp.C)
	oBuf := make([]int8, sp.K)
	acc := make([]int32, sp.K)
	biasBuf := make([]int32, sp.K)
	if k.Bias.Len != 0 {
		c.FlashLoadInt32(biasBuf, k.Bias, 0)
	}

	freed := 0 // input rows [0, freed) already released
	for op := 0; op < oh; op++ {
		for oq := 0; oq < ow; oq++ {
			c.RegAlloc(acc, 0)
			if k.Bias.Len != 0 {
				copy(acc, biasBuf)
			}
			for r := 0; r < sp.R; r++ {
				ih := op*sp.Stride + r - sp.Pad
				if ih < 0 || ih >= sp.H {
					continue
				}
				for s := 0; s < sp.S; s++ {
					iw := oq*sp.Stride + s - sp.Pad
					if iw < 0 || iw >= sp.W {
						continue
					}
					elem := (ih*sp.W + iw) * sp.C
					c.RAMLoad(aBuf, in.Off+elem, in.ID, elem)
					for n := 0; n < sp.K; n++ {
						c.DotVec(aBuf, c.Flash(k.Weight, ((n*sp.R+r)*sp.S+s)*sp.C, sp.C), &acc[n])
					}
				}
			}
			for i := range oBuf {
				oBuf[i] = c.Requantize(acc[i], k.Req)
			}
			elem := (op*ow + oq) * sp.K
			c.RAMStore(outOff+elem, oBuf, outID, elem)
		}
		// Rows below the next window's reach are dead: free them.
		lowest := (op+1)*sp.Stride - sp.Pad
		for ; freed < lowest && freed < sp.H; freed++ {
			c.RAMFree(in.Off+freed*sp.W*sp.C, sp.W*sp.C, in.ID)
		}
	}
	for ; freed < sp.H; freed++ {
		c.RAMFree(in.Off+freed*sp.W*sp.C, sp.W*sp.C, in.ID)
	}
	return Placement{ID: outID, Off: outOff, Bytes: oh * ow * sp.K}, nil
}

// Depthwise is the per-channel convolution kernel. Its plan degenerates to
// near-in-place operation, matching TinyEngine's in-place depthwise.
// Weights are [R][S][C] in Flash; bias is [C] int32.
type Depthwise struct {
	H, W, C           int
	R, S, Stride, Pad int
	Weight            mcu.FlashRef
	Bias              mcu.FlashRef
	Req               tensor.Requant
}

// Plan returns the §4 memory plan for this layer.
func (k *Depthwise) Plan() plan.Plan {
	return plan.Depthwise(k.H, k.W, k.C, k.R, k.S, k.Stride, k.Pad)
}

// Validate checks tensor sizes.
func (k *Depthwise) Validate() error {
	if k.H <= 0 || k.W <= 0 || k.C <= 0 || k.R <= 0 || k.S <= 0 || k.Stride <= 0 || k.Pad < 0 {
		return fmt.Errorf("kernels: depthwise dims invalid: %+v", k)
	}
	if err := checkSize("depthwise weight", k.Weight.Len, k.R*k.S*k.C); err != nil {
		return err
	}
	if k.Bias.Len != 0 {
		return checkSize("depthwise bias", k.Bias.Len, 4*k.C)
	}
	return nil
}

// Run executes the depthwise convolution with streaming row frees.
func (k *Depthwise) Run(c *intrin.Ctx, p plan.Plan, in Placement) (Placement, error) {
	if err := k.Validate(); err != nil {
		return Placement{}, err
	}
	if err := checkSize("depthwise input", in.Bytes, k.H*k.W*k.C); err != nil {
		return Placement{}, err
	}
	oh := (k.H+2*k.Pad-k.R)/k.Stride + 1
	ow := (k.W+2*k.Pad-k.S)/k.Stride + 1
	outID := c.Dev.NewTensorID("dw.out")
	outOff := in.Off - p.GapBytes()
	c.Dev.CountCalls(1)

	aBuf := make([]int8, k.C)
	oBuf := make([]int8, k.C)
	acc := make([]int32, k.C)
	biasBuf := make([]int32, k.C)
	if k.Bias.Len != 0 {
		c.FlashLoadInt32(biasBuf, k.Bias, 0)
	}

	freed := 0
	for op := 0; op < oh; op++ {
		for oq := 0; oq < ow; oq++ {
			c.RegAlloc(acc, 0)
			if k.Bias.Len != 0 {
				copy(acc, biasBuf)
			}
			for r := 0; r < k.R; r++ {
				ih := op*k.Stride + r - k.Pad
				if ih < 0 || ih >= k.H {
					continue
				}
				for s := 0; s < k.S; s++ {
					iw := oq*k.Stride + s - k.Pad
					if iw < 0 || iw >= k.W {
						continue
					}
					elem := (ih*k.W + iw) * k.C
					c.RAMLoad(aBuf, in.Off+elem, in.ID, elem)
					w := c.Flash(k.Weight, (r*k.S+s)*k.C, k.C)
					for cc, a := range aBuf {
						acc[cc] += int32(a) * int32(w[cc])
					}
					c.Dev.CountMACs(k.C)
				}
			}
			for i := range oBuf {
				oBuf[i] = c.Requantize(acc[i], k.Req)
			}
			elem := (op*ow + oq) * k.C
			c.RAMStore(outOff+elem, oBuf, outID, elem)
		}
		lowest := (op+1)*k.Stride - k.Pad
		for ; freed < lowest && freed < k.H; freed++ {
			c.RAMFree(in.Off+freed*k.W*k.C, k.W*k.C, in.ID)
		}
	}
	for ; freed < k.H; freed++ {
		c.RAMFree(in.Off+freed*k.W*k.C, k.W*k.C, in.ID)
	}
	return Placement{ID: outID, Off: outOff, Bytes: oh * ow * k.C}, nil
}

// Add is the saturating residual addition kernel: out[i] = sat(a[i]+b[i]).
// It streams segment by segment, freeing both inputs, with the output
// overwriting the first input in place (gap 0) unless a plan directs
// otherwise.
type Add struct {
	N int // element count
}

// Plan returns the in-place plan for the add layer (gap 0, one segment).
func (k *Add) Plan() plan.Plan {
	return plan.Plan{SegBytes: minIntK(k.N, 64), InBytes: k.N, OutBytes: k.N,
		FootprintBytes: 2 * k.N, Note: "elementwise add (in-place over A)"}
}

// Run adds b into a, producing the output over a's storage.
func (k *Add) Run(c *intrin.Ctx, a, b Placement) (Placement, error) {
	if a.Bytes != k.N || b.Bytes != k.N {
		return Placement{}, fmt.Errorf("kernels: add operands %d/%d, want %d", a.Bytes, b.Bytes, k.N)
	}
	outID := c.Dev.NewTensorID("add.out")
	c.Dev.CountCalls(1)
	seg := minIntK(k.N, 64)
	aBuf := make([]int8, seg)
	bBuf := make([]int8, seg)
	oBuf := make([]int8, seg)
	for off := 0; off < k.N; off += seg {
		n := seg
		if k.N-off < n {
			n = k.N - off
		}
		c.RAMLoad(aBuf[:n], a.Off+off, a.ID, off)
		c.RAMLoad(bBuf[:n], b.Off+off, b.ID, off)
		for i := 0; i < n; i++ {
			oBuf[i] = c.SatAddInt8(aBuf[i], bBuf[i])
		}
		c.RAMFree(a.Off+off, n, a.ID)
		c.RAMFree(b.Off+off, n, b.ID)
		c.RAMStore(a.Off+off, oBuf[:n], outID, off)
	}
	return Placement{ID: outID, Off: a.Off, Bytes: k.N}, nil
}

func minIntK(a, b int) int {
	if a < b {
		return a
	}
	return b
}
