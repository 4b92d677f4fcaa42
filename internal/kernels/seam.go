package kernels

import (
	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// Seam is the streamed inter-module glue kernel: the strided 1×1
// convolution the Table-2 backbones elide between stages (stride-2
// spatial downsample, channel-change pointwise, or both). It follows the
// same five-step structure as every pool kernel — load the input pixel's
// segments, compute, store the output segments into pool space freed from
// the input at the planner's Eq. (1) gap, free input rows the strided
// window has passed, boundary-check — so a handoff boundary no longer
// needs both activations resident and disjoint.
//
// Weights are [Cout][Cin] int8 in Flash (CMSIS output-major); bias is
// [Cout] int32 (optional, Len 0 = none).
type Seam struct {
	Spec   plan.SeamSpec
	Weight mcu.FlashRef
	Bias   mcu.FlashRef
	Req    tensor.Requant
}

// Plan returns the solved Eq. (1) seam plan.
func (k *Seam) Plan() plan.Plan { return plan.PlanSeam(k.Spec) }

// Validate checks tensor sizes.
func (k *Seam) Validate() error {
	if err := k.Spec.Validate(); err != nil {
		return err
	}
	if err := checkSize("seam weight", k.Weight.Len, k.Spec.Cout*k.Spec.Cin); err != nil {
		return err
	}
	if k.Bias.Len != 0 {
		return checkSize("seam bias", k.Bias.Len, 4*k.Spec.Cout)
	}
	return nil
}

// Run executes the seam, streaming output pixels into the pool at
// in.Off − p.GapBytes(). Input rows are freed as soon as the strided read
// has passed them (rows the stride skips die with their row group), which
// is the invariant the planner's per-pixel scan assumes.
func (k *Seam) Run(c *intrin.Ctx, p plan.Plan, in Placement) (Placement, error) {
	if err := k.Validate(); err != nil {
		return Placement{}, err
	}
	sp := k.Spec
	if err := checkSize("seam input", in.Bytes, sp.InBytes()); err != nil {
		return Placement{}, err
	}
	oh, ow := sp.OutDims()
	outID := c.Dev.NewTensorID("seam.out")
	outOff := in.Off - p.GapBytes()
	c.Dev.CountCalls(1)

	aBuf := make([]int8, sp.Cin)
	oBuf := make([]int8, sp.Cout)
	acc := make([]int32, sp.Cout)
	biasBuf := make([]int32, sp.Cout)
	if k.Bias.Len != 0 {
		c.FlashLoadInt32(biasBuf, k.Bias, 0)
	}

	freed := 0 // input rows [0, freed) already released
	for op := 0; op < oh; op++ {
		for oq := 0; oq < ow; oq++ {
			elem := (op*sp.Stride*sp.W + oq*sp.Stride) * sp.Cin
			c.RAMLoad(aBuf, in.Off+elem, in.ID, elem)
			c.RegAlloc(acc, 0)
			if k.Bias.Len != 0 {
				copy(acc, biasBuf)
			}
			c.MatVec(oBuf, aBuf, k.Weight, 0, acc, k.Req)
			oElem := (op*ow + oq) * sp.Cout
			c.RAMStore(outOff+oElem, oBuf, outID, oElem)
		}
		// Rows below the next strided read are dead: free them (including
		// the stride-skipped rows in between).
		lowest := (op + 1) * sp.Stride
		for ; freed < lowest && freed < sp.H; freed++ {
			c.RAMFree(in.Off+freed*sp.W*sp.Cin, sp.W*sp.Cin, in.ID)
		}
	}
	for ; freed < sp.H; freed++ {
		c.RAMFree(in.Off+freed*sp.W*sp.Cin, sp.W*sp.Cin, in.ID)
	}
	return Placement{ID: outID, Off: outOff, Bytes: oh * ow * sp.Cout}, nil
}
