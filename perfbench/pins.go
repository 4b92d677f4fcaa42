package main

import (
	"errors"
	"fmt"
	"math"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/netplan"
	"github.com/vmcu-project/vmcu/internal/serve"
)

// pin is the simulated outcome every verified request of one (model,
// profile) pair must reproduce exactly: the reserved plan peak and the
// device counters summed over every executed unit. Host-speed changes
// must never move these; a change that does fails every run until the
// pin is re-measured on purpose. The counters do not depend on the
// request seed, which only picks weight and input values.
type pin struct {
	peakBytes int
	stats     mcu.Stats
}

var pins = map[string]pin{
	pinKey("imagenet", mcu.CortexM7()): {
		peakBytes: 65968,
		stats: mcu.Stats{
			RAMReadBytes: 24681896, RAMWriteBytes: 7556512, FlashReadBytes: 141014336,
			MACs: 140904416, ALUOps: 144978168, DivModOps: 132348, Branches: 132267, Calls: 35,
		},
	},
}

func pinKey(model string, p mcu.Profile) string { return model + "@" + p.Name }

func pinFor(model string, p mcu.Profile) (pin, error) {
	pn, ok := pins[pinKey(model, p)]
	if !ok {
		return pin{}, fmt.Errorf("no counter pin for %s", pinKey(model, p))
	}
	return pn, nil
}

// costContract is the cost model's stated tolerance: estimated cycles and
// energy within ±10% of the executed counters.
const costContract = 0.10

// executedStats sums the device counters over every unit of a run.
func executedStats(r *netplan.RunResult) mcu.Stats {
	var st mcu.Stats
	for _, u := range r.Modules {
		st.Add(u.Stats)
	}
	for _, u := range r.Seams {
		st.Add(u.Stats)
	}
	return st
}

// checkRun applies the verified-execution gate to one run: bit-exact
// outputs, no memory-safety violations, and counters equal to the pin.
func checkRun(r *netplan.RunResult, pn pin) error {
	switch {
	case r == nil:
		return errors.New("no execution result")
	case !r.AllVerified:
		return errors.New("unverified: output differs from the golden composition")
	case r.Violations != 0:
		return fmt.Errorf("%d memory-safety violations", r.Violations)
	case r.Plan.PeakBytes != pn.peakBytes:
		return fmt.Errorf("plan peak drift: %d bytes, pinned %d", r.Plan.PeakBytes, pn.peakBytes)
	}
	if st := executedStats(r); st != pn.stats {
		return fmt.Errorf("counter drift: executed %+v, pinned %+v", st, pn.stats)
	}
	return nil
}

// checkResult is the per-request correctness gate. Any error (refused,
// shed, failed), an unverified output, a violation or counter drift on a
// verified workload, or an execution on the dry run, is a failure.
func checkResult(w *workload, req request, res serve.Result, err error) error {
	name := w.models[req.model].name
	if err != nil {
		return fmt.Errorf("%s: %w", classify(err), err)
	}
	if res.Model != name {
		return fmt.Errorf("result for model %q, submitted %q", res.Model, name)
	}
	if !w.verified() {
		if res.Run != nil {
			return errors.New("dry-run request executed kernels")
		}
		return nil
	}
	prof, ok := w.profileOf(res.Device)
	if !ok {
		return fmt.Errorf("result from unknown device %q", res.Device)
	}
	pn, err := pinFor(name, prof)
	if err != nil {
		return err
	}
	if res.PeakBytes != pn.peakBytes {
		return fmt.Errorf("reserved peak drift: %d bytes, pinned %d", res.PeakBytes, pn.peakBytes)
	}
	return checkRun(res.Run, pn)
}

// estimateResidual checks the pinned counters of a verified workload's
// model against netplan.EstimatePlan on a fresh plan, returning the
// magnitude of the cycle residual in percent. Beyond the cost contract
// it is an error.
func estimateResidual(w *workload) (float64, error) {
	m, prof := w.models[0], w.devices[0].Profile
	pn, err := pinFor(m.name, prof)
	if err != nil {
		return 0, err
	}
	np, err := netplan.Plan(m.net, netplan.Options{})
	if err != nil {
		return 0, err
	}
	if np.PeakBytes != pn.peakBytes {
		return 0, fmt.Errorf("plan peak drift: %d bytes, pinned %d", np.PeakBytes, pn.peakBytes)
	}
	est, err := netplan.EstimatePlan(prof, m.net, np)
	if err != nil {
		return 0, err
	}
	cyc := pn.stats.Cycles(prof)
	energy := pn.stats.EnergyJoules(prof)
	resid := (cyc - est.ExecutedCycles) / est.ExecutedCycles
	eResid := (energy - est.ExecutedEnergyJoules) / est.ExecutedEnergyJoules
	if math.Abs(resid) > costContract || math.Abs(eResid) > costContract {
		return 0, fmt.Errorf("cost model drift: cycles %+.2f%%, energy %+.2f%% (contract ±%.0f%%)",
			100*resid, 100*eResid, 100*costContract)
	}
	return 100 * math.Abs(resid), nil
}
