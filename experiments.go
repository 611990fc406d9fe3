package nesc

import "nesc/internal/bench"

// ExperimentInfo describes one regenerable paper artifact or ablation.
type ExperimentInfo struct {
	Name  string
	Title string
}

// Experiments lists every experiment the harness can regenerate: the
// paper's Tables I–II and Figures 2, 9, 10, 11, 12, plus the ablations
// documented in DESIGN.md. An experiment kept out of the golden "all" run
// (its own artifact, its own determinism gate) says so in its title.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range bench.Registry() {
		out = append(out, ExperimentInfo{Name: e.Name, Title: e.Label()})
	}
	return out
}

// RunExperiment regenerates one experiment on the default calibrated
// platform and returns its rendered tables.
func RunExperiment(name string) (string, error) {
	e, err := bench.ByName(name)
	if err != nil {
		return "", err
	}
	tables, err := e.Run(bench.DefaultConfig())
	if err != nil {
		return "", err
	}
	return bench.Render(tables), nil
}
