package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// flagSurface is the daemon's reviewed flag set, sorted. Adding or
// removing a flag must change this list in the same commit.
const flagSurface = `admit-target
alg
chaos-spec
client-listen
lease-ttl
listen
local
nodes
peers
policy
pprof
reliable
resources
shards`

func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("mrallocd", flag.ContinueOnError)
	registerFlags(fs, new(daemonConfig))
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) }) // lexical order
	if got := strings.Join(names, "\n"); got != flagSurface {
		t.Errorf("registered flags (%d) differ from the reviewed list (%d):\n%s",
			len(names), strings.Count(flagSurface, "\n")+1, got)
	}
}

// TestRemovedFlagRejected: a flag that left the surface gets no alias —
// the flag package's own error names it.
func TestRemovedFlagRejected(t *testing.T) {
	for _, arg := range []string{"-ops=20", "-linger=2s", "-chaos-drop=0.1", "-hb-interval=1s", "-wire-window=65536", "-max-queue=4", "-egress-budget=-1", "-wire-delta=false", "-cross-two-phase"} {
		fs := flag.NewFlagSet("mrallocd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		registerFlags(fs, new(daemonConfig))
		err := fs.Parse([]string{arg})
		if err == nil || !strings.Contains(err.Error(), "provided but not defined") {
			t.Errorf("%s: err = %v, want the flag package's \"provided but not defined\"", arg, err)
		}
	}
}
