package kernels

import (
	"fmt"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// FC is the paper's fully connected kernel (Figure 4): two-level tiling
// with the outer level walking segments and the inner level feeding the
// Dot intrinsic; the output row is stored into pool space ahead of the
// input pointer, and each input row is freed right after its outputs are
// produced.
//
// Weight layout is output-major [N][K] (CMSIS FC convention) in Flash;
// Bias is [N] int32 in Flash (Len 0 for none).
type FC struct {
	M, K, N int
	Weight  mcu.FlashRef
	Bias    mcu.FlashRef
	Req     tensor.Requant
	// KeepInput suppresses the streaming input-row frees: the caller keeps
	// the input tensor live past this kernel (a residual chain's conv1,
	// whose input the skip add still needs). The plan must then hold the
	// output disjoint from the input.
	KeepInput bool
}

// Validate checks dimensions against the §5.3 segment-size rule.
func (f *FC) Validate(p plan.Plan) error {
	if f.M <= 0 || f.K <= 0 || f.N <= 0 {
		return fmt.Errorf("kernels: FC dims must be positive (%d,%d,%d)", f.M, f.K, f.N)
	}
	seg := p.SegBytes
	if f.K%seg != 0 || f.N%seg != 0 {
		return fmt.Errorf("kernels: FC K=%d N=%d not divisible by segment %d", f.K, f.N, seg)
	}
	if err := checkSize("FC weight", f.Weight.Len, f.N*f.K); err != nil {
		return err
	}
	if f.Bias.Len != 0 {
		return checkSize("FC bias", f.Bias.Len, 4*f.N)
	}
	return nil
}

// Run executes the kernel. in must hold M·K int8 elements at its pool
// offset; the output placement starts GapBytes before the input pointer,
// exactly as §4 prescribes ("shifting the input tensor pointer towards the
// memory pool head by bIn − bOut segments").
func (f *FC) Run(c *intrin.Ctx, p plan.Plan, in Placement) (Placement, error) {
	if err := f.Validate(p); err != nil {
		return Placement{}, err
	}
	if err := checkSize("FC input", in.Bytes, f.M*f.K); err != nil {
		return Placement{}, err
	}
	seg := p.SegBytes
	kSegs := f.K / seg
	nSegs := f.N / seg

	outID := c.Dev.NewTensorID("fc.out")
	outOff := in.Off - p.GapBytes()
	c.Dev.CountCalls(1)

	aBuf := make([]int8, seg)
	oBuf := make([]int8, seg)
	acc := make([]int32, seg)

	for m := 0; m < f.M; m++ {
		for ns := 0; ns < nSegs; ns++ {
			n0 := ns * seg
			c.RegAlloc(acc, 0)
			if f.Bias.Len != 0 {
				c.FlashLoadInt32(acc, f.Bias, n0)
			}
			for ks := 0; ks < kSegs; ks++ {
				k0 := ks * seg
				// Load one input segment of row m.
				c.RAMLoad(aBuf, in.Off+m*f.K+k0, in.ID, m*f.K+k0)
				// Inner tiling: one weight row per output lane.
				for ni := 0; ni < seg; ni++ {
					c.DotVec(aBuf, c.Flash(f.Weight, (n0+ni)*f.K+k0, seg), &acc[ni])
				}
			}
			for i := range oBuf {
				oBuf[i] = c.Requantize(acc[i], f.Req)
			}
			c.RAMStore(outOff+m*f.N+n0, oBuf, outID, m*f.N+n0)
		}
		// Free the consumed input row (paper: RAMFree after the n loop),
		// unless the caller still needs the input tensor.
		if !f.KeepInput {
			for ks := 0; ks < kSegs; ks++ {
				c.RAMFree(in.Off+m*f.K+ks*seg, seg, in.ID)
			}
		}
	}
	return Placement{ID: outID, Off: outOff, Bytes: f.M * f.N}, nil
}

// Pointwise is a 1×1 convolution realized as the FC kernel over the
// flattened pixel axis — the single-layer workload of Figures 7/8.
type Pointwise struct {
	H, W, C, K int
	Weight     mcu.FlashRef // [K][C]
	Bias       mcu.FlashRef // [K] int32
	Req        tensor.Requant
	// KeepInput passes through to the FC kernel: no input-row frees.
	KeepInput bool
}

// Plan returns the §4 memory plan for this layer.
func (pw *Pointwise) Plan() plan.Plan { return plan.Pointwise(pw.H, pw.W, pw.C, pw.K) }

// Run executes the pointwise convolution via the FC kernel.
func (pw *Pointwise) Run(c *intrin.Ctx, p plan.Plan, in Placement) (Placement, error) {
	fc := &FC{M: pw.H * pw.W, K: pw.C, N: pw.K, Weight: pw.Weight, Bias: pw.Bias,
		Req: pw.Req, KeepInput: pw.KeepInput}
	out, err := fc.Run(c, p, in)
	if err != nil {
		return Placement{}, fmt.Errorf("pointwise %dx%d c%d k%d: %w", pw.H, pw.W, pw.C, pw.K, err)
	}
	return out, nil
}
