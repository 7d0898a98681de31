package main

import (
	"reflect"
	"strings"
	"testing"

	"mralloc/internal/experiments"
)

// TestDiffTable: -diff's comparison on doctored recordings of one small
// table — a changed cell is one "old → new" line naming its row and
// column, a row on one side only is one line, a changed header ends the
// comparison, and the table's own rendering differs from itself nowhere.
func TestDiffTable(t *testing.T) {
	tab := experiments.Table{Header: []string{"phi", "Without loan", "With loan"}}
	tab.Add(1, 10.26, 10.26)
	tab.Add(8, 15.24, 15.94)
	tab.Add(16, 15.29, 16.31)
	recorded := tab.CSV()
	if got := diffTable(tab, recorded); len(got) != 0 {
		t.Fatalf("a table differs from its own rendering: %q", got)
	}
	doctor := func(old, new string) string {
		if !strings.Contains(recorded, old) {
			t.Fatalf("recording has no %q", old)
		}
		return strings.Replace(recorded, old, new, 1)
	}
	for _, c := range []struct {
		why      string
		recorded string
		want     []string
	}{
		{"two cells", doctor("8,15.24,15.94", "8,15.2,15.9"),
			[]string{"phi=8, Without loan: 15.2 → 15.24", "phi=8, With loan: 15.9 → 15.94"}},
		{"a row the recording lacks", doctor("8,15.24,15.94\n", ""),
			[]string{"phi=8: not in the recording"}},
		{"a row only the recording has", recorded + "24,19.22,18.99\n",
			[]string{"phi=24: recorded, no longer produced"}},
		{"a renamed column", doctor("With loan", "Loan"),
			[]string{"header: phi,Without loan,Loan → phi,Without loan,With loan"}},
	} {
		if got := diffTable(tab, c.recorded); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: %q, want %q", c.why, got, c.want)
		}
	}
}
