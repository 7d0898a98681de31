package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/*.csv from this tree instead of comparing")

// TestFigureGoldens is the referee for the paper's figures: Figures
// 5a–7b and the message-complexity table at Quick scale, as CSV, must
// equal the recorded tables. The simulator is deterministic per seed,
// so any difference is a protocol (or workload, or metric) change: a
// commit that means one re-records with
//
//	go test ./internal/experiments -run TestFigureGoldens -update
//
// and the testdata diff shows what it did to each cell of each figure.
func TestFigureGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure at Quick scale")
	}
	tables := append(Figures[:len(Figures):len(Figures)], Experiment{"msgs", MessageComplexity})
	for _, e := range tables {
		t.Run(e.Name, func(t *testing.T) {
			tab, err := e.Run(Quick)
			if err != nil {
				t.Fatal(err)
			}
			got := tab.CSV()
			path := filepath.Join("testdata", e.Name+"_quick.csv")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from the recorded table (re-record with -update if intended)\n--- recorded\n%s--- this tree\n%s", path, want, got)
			}
		})
	}
}

// TestNameTables: every name the CLIs accept resolves to something
// that builds, and the lists the flag help prints have no duplicates.
func TestNameTables(t *testing.T) {
	names := AlgorithmNames()
	if !sort.StringsAreSorted(names) || len(names) != len(algorithmNames) {
		t.Fatalf("AlgorithmNames() = %v", names)
	}
	for _, name := range names {
		a, ok := AlgorithmByName(name)
		if !ok {
			t.Fatalf("listed name %q does not resolve", name)
		}
		if nodes := Factory(a)(4, 8); len(nodes) != 4 {
			t.Fatalf("%s factory built %d nodes", name, len(nodes))
		}
	}
	if _, ok := AlgorithmByName("bouabdallah"); ok {
		t.Fatal("an alias crept into the name table")
	}
	seen := map[string]bool{}
	for _, e := range append(Figures[:len(Figures):len(Figures)], Sweeps...) {
		if seen[e.Name] || e.Name == "all" || e.Run == nil {
			t.Fatalf("bad table entry %q", e.Name)
		}
		seen[e.Name] = true
	}
	for _, name := range []string{"quick", "std", "full"} {
		if _, ok := ScaleByName(name); !ok {
			t.Fatalf("scale %q does not resolve", name)
		}
	}
}
