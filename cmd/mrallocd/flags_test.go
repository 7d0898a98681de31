package main

import (
	"context"
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
cross-two-phase
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
	for _, arg := range []string{"-ops=20", "-linger=2s", "-chaos-drop=0.1", "-hb-interval=1s", "-wire-window=65536", "-max-queue=4", "-egress-budget=-1", "-wire-delta=false"} {
		fs := flag.NewFlagSet("mrallocd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		registerFlags(fs, new(daemonConfig))
		err := fs.Parse([]string{arg})
		if err == nil || !strings.Contains(err.Error(), "provided but not defined") {
			t.Errorf("%s: err = %v, want the flag package's \"provided but not defined\"", arg, err)
		}
	}
}

// TestLossyChaosNeedsReliable: a -chaos-spec that can lose or repeat a
// peer message (drop, dup, kill-every) is refused without -reliable,
// with an error that names the flag; delay alone, or any of them under
// -reliable, gets past that check (here to the -peers one, so no
// daemon starts).
func TestLossyChaosNeedsReliable(t *testing.T) {
	for _, c := range []struct {
		args    []string
		refused bool
	}{
		{[]string{"-chaos-spec=drop=0.1"}, true},
		{[]string{"-chaos-spec=seed=3,dup=0.02"}, true},
		{[]string{"-chaos-spec=kill-every=1s"}, true},
		{[]string{"-chaos-spec=delay=100us..1ms"}, false},
		{[]string{"-chaos-spec=drop=0.1,dup=0.1,kill-every=1s", "-reliable"}, false},
	} {
		var cfg daemonConfig
		fs := flag.NewFlagSet("mrallocd", flag.ContinueOnError)
		registerFlags(fs, &cfg)
		if err := fs.Parse(append([]string{"-nodes=2", "-peers=127.0.0.1:1"}, c.args...)); err != nil {
			t.Fatal(err)
		}
		err := run(context.Background(), cfg, io.Discard)
		if err == nil {
			t.Fatalf("%v: run accepted a one-address -peers for two nodes", c.args)
		}
		if refused := strings.Contains(err.Error(), "-reliable"); refused != c.refused {
			t.Errorf("%v: err = %v, refused for lack of -reliable = %v, want %v", c.args, err, refused, c.refused)
		}
		if !c.refused && !strings.Contains(err.Error(), "-peers") {
			t.Errorf("%v: err = %v, want the -peers check's", c.args, err)
		}
	}
}
