package experiments

import "sort"

// algorithmNames is the one name→algorithm table of the tree: the
// spellings of the public mralloc.Algorithm constants, plus the two
// related-work comparators only the simulator runs. cmd/mrsim,
// cmd/mrallocd and mralloc.Algorithm all resolve names here.
var algorithmNames = map[string]Algorithm{
	"incremental":          Incremental,
	"bouabdallah-laforest": Bouabdallah,
	"counter-no-loan":      WithoutLoan,
	"counter-loan":         WithLoan,
	"shared-memory":        SharedMem,
	"maddi":                Maddi,
	"manager":              Manager,
}

// AlgorithmByName resolves a command-line or API algorithm name.
func AlgorithmByName(name string) (Algorithm, bool) {
	a, ok := algorithmNames[name]
	return a, ok
}

// AlgorithmNames lists every accepted name, sorted, for flag help.
func AlgorithmNames() []string {
	names := make([]string, 0, len(algorithmNames))
	for n := range algorithmNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ScaleByName resolves the -scale flag of cmd/mrsim.
func ScaleByName(name string) (Scale, bool) {
	sc, ok := map[string]Scale{"quick": Quick, "std": Std, "full": Full}[name]
	return sc, ok
}

// Experiment is one named table of the evaluation.
type Experiment struct {
	Name string
	Run  func(Scale) (Table, error)
}

// Figures are the paper's evaluation figures (§5), in print order:
// (a) is the medium-load regime, (b) the high-load one.
var Figures = []Experiment{
	{"5a", func(sc Scale) (Table, error) { return Figure5(MediumLoad, sc) }},
	{"5b", func(sc Scale) (Table, error) { return Figure5(HighLoad, sc) }},
	{"6a", func(sc Scale) (Table, error) { return Figure6(MediumLoad, sc) }},
	{"6b", func(sc Scale) (Table, error) { return Figure6(HighLoad, sc) }},
	{"7a", func(sc Scale) (Table, error) { return Figure7(MediumLoad, sc) }},
	{"7b", func(sc Scale) (Table, error) { return Figure7(HighLoad, sc) }},
}

// Sweeps are the extension and ablation experiments, in print order.
var Sweeps = []Experiment{
	{"threshold", ThresholdSweep}, // E1: loan threshold (the paper's future work)
	{"cloud", CloudExperiment},    // E2: two-zone hierarchical topology
	{"markfn", MarkSweep},         // A1: choice of the scheduling function A
	{"opts", OptsSweep},           // A2: §4.2.2/§4.6 optimization toggles
	{"msgs", MessageComplexity},   // message complexity incl. the broadcast baseline
	{"fairness", FairnessSweep},   // Jain fairness of per-site service
	{"hotspot", HotspotSweep},     // Zipf-skewed resource popularity
}
