package graph

import (
	"fmt"
	"math/rand"

	"github.com/vmcu-project/vmcu/internal/intrin"
	"github.com/vmcu-project/vmcu/internal/kernels"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/seg"
)

// RunSplitRegion executes a patch-split prefix region (plan.SplitPlan)
// patch by patch on a fresh simulated device and verifies the re-joined
// final activation bit-exactly against the golden composition of the
// region's modules.
//
// The pool layout is exactly the SplitPlan's: the join region at offset 0,
// then the two ping-pong scratch slots. Each patch streams its input-row
// window (with halo) into slot 0 — modeling MCUNetV2-style patch-wise
// input acquisition, where the full high-resolution plane never has to be
// resident — runs each module's fused kernel over the patch rows, frees
// every sub-chain tensor as soon as its consumer finishes, and writes the
// final module's rows straight into the join region. Halo rows are
// recomputed by each patch, so patches are fully independent.
//
// The per-module seeds match the per-module executors: module i of the
// region draws its weights from seed+i, so a split region is verified
// against the same parameters an unsplit run of the same modules would use.
func RunSplitRegion(profile mcu.Profile, sp plan.SplitPlan, seed int64) (ExecResult, error) {
	mods := sp.Spec.Modules
	if err := plan.CanSplit(mods); err != nil {
		return ExecResult{}, fmt.Errorf("graph: %w", err)
	}
	k := len(mods)
	poolBytes := sp.PoolBytes()
	if need := poolBytes + sp.WorkspaceBytes; need > profile.RAMBytes() {
		return ExecResult{}, fmt.Errorf("graph: split region %s needs %d bytes (pool %d + workspace %d), device has %d",
			regionName(sp), need, poolBytes, sp.WorkspaceBytes, profile.RAMBytes())
	}
	flashNeed := 0
	for _, cfg := range mods {
		flashNeed += cfg.Cmid*cfg.Cin + cfg.R*cfg.S*cfg.Cmid + cfg.Cout*cfg.Cmid + 4*(2*cfg.Cmid+cfg.Cout) + 64
	}
	dev := mcu.Acquire(profile, flashNeed)
	defer mcu.Release(dev)
	pool, err := seg.NewPool(dev, 0, poolBytes, sp.SegBytes)
	if err != nil {
		return ExecResult{}, err
	}
	ctx := intrin.NewCtx(dev, pool)
	wsBase := poolBytes

	// Per-module weights and kernels, seeded exactly like the per-module
	// executors so verification parameters agree across policies.
	kns := make([]*kernels.Bottleneck, k)
	wts := make([]kernels.BottleneckWeights, k)
	for i, cfg := range mods {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		wts[i] = randomBottleneckWeights(rng, cfg)
		if kns[i], err = kernels.NewBottleneck(dev, cfg, wts[i]); err != nil {
			return ExecResult{}, err
		}
	}
	first := mods[0]
	inRng := rand.New(rand.NewSource(seed))
	randomBottleneckWeights(inRng, first) // burn the weight draws, as RunModuleWithPlan does
	in := make([]int8, first.H*first.W*first.Cin)
	for i := range in {
		in[i] = int8(inRng.Intn(255) - 127)
	}

	joinPl := kernels.Placement{
		ID:    dev.NewTensorID(regionName(sp) + ".join"),
		Off:   0,
		Bytes: sp.JoinBytes,
	}
	inRowBytes := sp.RowBytes[0]
	dev.ResetPeak()
	for j, pp := range sp.Patches {
		// Stream the patch's input-row window (with halo) into slot 0.
		cur := kernels.PlaceInput(ctx,
			fmt.Sprintf("%s.in.p%d", regionName(sp), j),
			in[pp.Rows[0].Lo*inRowBytes:pp.Rows[0].Hi*inRowBytes],
			sp.SideOffset(0))
		for i, cfg := range mods {
			outRows := pp.Rows[i+1]
			var out kernels.Placement
			outRowBase := outRows.Lo
			if i == k-1 {
				out = joinPl
				outRowBase = 0
			} else {
				out = kernels.Placement{
					ID:    dev.NewTensorID(fmt.Sprintf("%s.t%d.p%d", regionName(sp), i+1, j)),
					Off:   sp.SideOffset(i + 1),
					Bytes: sp.PatchBytes(i+1, j),
				}
			}
			err := kns[i].RunPatch(ctx, cur, out, wsBase, kernels.Patch{
				OutRow0: outRows.Lo, OutRows: outRows.Len(),
				InRow0: pp.Rows[i].Lo, InRows: pp.Rows[i].Len(),
				OutRowBase: outRowBase,
			})
			if err != nil {
				return ExecResult{}, fmt.Errorf("graph: %s patch %d module %s: %w", regionName(sp), j, cfg.Name, err)
			}
			// The consumed tensor dies with its consumer; the join lives on.
			kernels.FreeAll(ctx, cur)
			cur = out
		}
	}

	got := kernels.Extract(ctx, joinPl)
	want := in
	for i, cfg := range mods {
		want = kernels.GoldenBottleneck(want, cfg.H, cfg.W, cfg.Cin, cfg.Cmid, cfg.Cout,
			cfg.R, cfg.S, cfg.S1, cfg.S2, cfg.S3, wts[i], false)
	}
	ok := len(got) == len(want)
	if ok {
		for i := range want {
			if got[i] != want[i] {
				ok = false
				break
			}
		}
	}
	_, nViol := dev.Violations()
	return ExecResult{
		Name: regionName(sp),
		Plan: plan.Plan{
			SegBytes:       sp.SegBytes,
			InBytes:        first.H * first.W * first.Cin,
			OutBytes:       sp.JoinBytes,
			WorkspaceBytes: sp.WorkspaceBytes,
			FootprintBytes: sp.FootprintBytes,
			Note: fmt.Sprintf("patch-split region %s (%d patches, %d halo rows recomputed)",
				regionName(sp), len(sp.Patches), sp.RecomputedRows),
		},
		Stats:      dev.Stats,
		PeakBytes:  dev.PeakBytes(),
		Violations: nViol,
		OutputOK:   ok,
	}, nil
}

// regionName labels a split region, e.g. "B1+B2(split×8)".
func regionName(sp plan.SplitPlan) string {
	mods := sp.Spec.Modules
	if len(mods) == 1 {
		return fmt.Sprintf("%s(split×%d)", mods[0].Name, sp.Spec.Patches)
	}
	return fmt.Sprintf("%s+%s(split×%d)", mods[0].Name, mods[len(mods)-1].Name, sp.Spec.Patches)
}
