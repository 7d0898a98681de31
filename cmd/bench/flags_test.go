package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"
)

// flagSurface is the tool's reviewed flag set, sorted. Adding or
// removing a flag must change this list in the same commit.
const flagSurface = `count
cpuprofile
memprofile
run`

func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	registerFlags(fs, new(options))
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) }) // lexical order
	if got := strings.Join(names, "\n"); got != flagSurface {
		t.Errorf("registered flags differ from the reviewed list:\n%s", got)
	}
}

// TestUsageErrors: the two probes the verify skill documents exit 1
// with a message, before any cell runs.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "nomatch"}, "no scenario matched"},
		{[]string{"-count", "0"}, "need at least one run"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) || stdout.Len() != 0 {
			t.Errorf("%v: stderr %q (want %q), stdout %q (want none)", tc.args, stderr.String(), tc.want, stdout.String())
		}
	}
}
