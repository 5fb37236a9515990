package experiment

import (
	"fmt"
	"io"

	"tdfm/internal/core"
	"tdfm/internal/faultinject"
	"tdfm/internal/metrics"
	"tdfm/internal/models"
	"tdfm/internal/report"
	"tdfm/internal/xrand"
)

// Ablations probe the design choices DESIGN.md calls out: the ensemble
// size n, the label-smoothing budget α (and relaxation vs classic
// smoothing), the label-correction clean fraction γ, and the distillation
// temperature T. Each ablation measures AD under a fixed fault injection,
// holding everything else at study defaults.

// AblationPoint is one (setting, AD) measurement.
type AblationPoint struct {
	Setting string
	AD      metrics.Summary
}

// measureCustom trains an arbitrary (non-registry) technique under the
// runner's protocol and returns AD across repetitions. Custom techniques
// are not memoized; key material only seeds their randomness.
func (r *Runner) measureCustom(ds string, tech core.Technique, label, arch string, specs []FaultSpec) (metrics.Summary, error) {
	train, test, err := r.Dataset(ds)
	if err != nil {
		return metrics.Summary{}, err
	}
	ads := make([]float64, 0, r.Reps)
	for rep := 0; rep < r.Reps; rep++ {
		golden, err := r.Golden(ds, arch, rep)
		if err != nil {
			return metrics.Summary{}, err
		}
		protoKey := fmt.Sprintf("%s|inject|%s|rep%d", ds, specsKey(specs), rep)
		injRNG := xrand.New(r.Seed).Split(protoKey)
		cleanIdx := train.StratifiedIndices(r.CleanFrac, injRNG.Split("clean"))
		faulty := train
		if len(specs) > 0 {
			inj := faultinject.New(injRNG.Split("faults"))
			inj.Protect(cleanIdx)
			faulty, _, err = inj.Inject(train, specs...)
			if err != nil {
				return metrics.Summary{}, err
			}
		}
		rng := xrand.New(r.Seed).Split(fmt.Sprintf("custom|%s|%s|%s|rep%d", ds, label, arch, rep))
		clf, err := tech.Train(core.Config{Arch: arch, Epochs: r.EpochOverride, WidthMult: r.WidthMult},
			core.TrainSet{Data: faulty, CleanIndices: cleanIdx}, rng)
		if err != nil {
			return metrics.Summary{}, fmt.Errorf("experiment: ablation %s: %w", label, err)
		}
		ads = append(ads, metrics.AccuracyDelta(golden, clf.Predict(test.X), test.Labels))
		core.ReleaseArenas(clf)
	}
	return metrics.Summarize(ads), nil
}

// AblateEnsembleSize measures AD as the ensemble grows from 1 to the
// paper's 5 diverse members (the paper's prior work [21] found n = 5 most
// effective).
func (r *Runner) AblateEnsembleSize(ds string, rate float64, sizes []int) ([]AblationPoint, error) {
	members := models.EnsembleMembers()
	specs := []FaultSpec{{Type: faultinject.Mislabel, Rate: rate}}
	out := make([]AblationPoint, 0, len(sizes))
	for _, n := range sizes {
		if n < 1 || n > len(members) {
			return nil, fmt.Errorf("experiment: ensemble size %d out of [1,%d]", n, len(members))
		}
		tech := core.NewEnsemble(members[:n])
		label := fmt.Sprintf("ens-n%d@%g", n, rate)
		ad, err := r.measureCustom(ds, tech, label, members[0], specs)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Setting: fmt.Sprintf("n=%d", n), AD: ad})
	}
	return out, nil
}

// AblateSmoothingAlpha measures AD across label-smoothing budgets for both
// label relaxation (the study representative) and classic fixed-target
// smoothing.
func (r *Runner) AblateSmoothingAlpha(ds, arch string, rate float64, alphas []float64) ([]AblationPoint, error) {
	specs := []FaultSpec{{Type: faultinject.Mislabel, Rate: rate}}
	out := make([]AblationPoint, 0, 2*len(alphas))
	for _, variant := range []struct {
		name    string
		classic bool
	}{{"relax", false}, {"classic", true}} {
		for _, a := range alphas {
			tech := core.LabelSmoothing{Alpha: a, Classic: variant.classic}
			label := fmt.Sprintf("ls-%s-a%g@%g", variant.name, a, rate)
			ad, err := r.measureCustom(ds, tech, label, arch, specs)
			if err != nil {
				return nil, err
			}
			out = append(out, AblationPoint{
				Setting: fmt.Sprintf("%s α=%g", variant.name, a), AD: ad})
		}
	}
	return out, nil
}

// AblateCleanFraction measures label correction's AD as the clean-subset
// fraction γ varies.
func (r *Runner) AblateCleanFraction(ds, arch string, rate float64, gammas []float64) ([]AblationPoint, error) {
	specs := []FaultSpec{{Type: faultinject.Mislabel, Rate: rate}}
	out := make([]AblationPoint, 0, len(gammas))
	origClean := r.CleanFrac
	defer func() { r.CleanFrac = origClean }()
	for _, g := range gammas {
		r.CleanFrac = g
		tech := core.NewLabelCorrection(g)
		label := fmt.Sprintf("lc-g%g@%g", g, rate)
		ad, err := r.measureCustom(ds, tech, label, arch, specs)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Setting: fmt.Sprintf("γ=%g", g), AD: ad})
	}
	return out, nil
}

// AblateKDTemperature measures self-distillation's AD across softmax
// temperatures.
func (r *Runner) AblateKDTemperature(ds, arch string, rate float64, temps []float64) ([]AblationPoint, error) {
	specs := []FaultSpec{{Type: faultinject.Mislabel, Rate: rate}}
	out := make([]AblationPoint, 0, len(temps))
	for _, temp := range temps {
		tech := core.KnowledgeDistillation{Alpha: 0.7, T: temp}
		label := fmt.Sprintf("kd-t%g@%g", temp, rate)
		ad, err := r.measureCustom(ds, tech, label, arch, specs)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{Setting: fmt.Sprintf("T=%g", temp), AD: ad})
	}
	return out, nil
}

// ReverseDeltaCheck verifies the paper's §III-C claim that the proportion
// of test images misclassified by the golden model but recovered by the
// faulty model is not significant. It returns the baseline's forward damage
// rate and reverse delta under the given injection, both normalized by the
// full test size so they are directly comparable.
func (r *Runner) ReverseDeltaCheck(ds, arch string, rate float64) (forward, reverse metrics.Summary, err error) {
	_, test, err := r.Dataset(ds)
	if err != nil {
		return forward, reverse, err
	}
	specs := []FaultSpec{{Type: faultinject.Mislabel, Rate: rate}}
	fwd := make([]float64, 0, r.Reps)
	rev := make([]float64, 0, r.Reps)
	for rep := 0; rep < r.Reps; rep++ {
		golden, err := r.Golden(ds, arch, rep)
		if err != nil {
			return forward, reverse, err
		}
		faulty, _, err := r.Predictions(ds, "base", arch, specs, rep)
		if err != nil {
			return forward, reverse, err
		}
		fwd = append(fwd, metrics.DamageRate(golden, faulty, test.Labels))
		rev = append(rev, metrics.ReverseDelta(golden, faulty, test.Labels))
	}
	return metrics.Summarize(fwd), metrics.Summarize(rev), nil
}

// RenderAblation writes ablation points as a bar list.
func RenderAblation(w io.Writer, title string, points []AblationPoint) {
	fmt.Fprintf(w, "%s — AD (lower is better)\n", title)
	for _, p := range points {
		fmt.Fprintf(w, "  %s\n", report.Bar(p.Setting, p.AD.Mean, p.AD.CI95, 40))
	}
}
