package main

import (
	"flag"
	"strings"
	"testing"
)

// flagSurface is the daemon's reviewed flag set, sorted. Adding or
// removing a flag must change this list in the same commit.
const flagSurface = `admit-target
alg
chaos-delay
chaos-delay-max
chaos-drop
chaos-dup
chaos-kill-every
chaos-seed
chaos-spec
client-listen
cross-two-phase
egress-budget
hb-interval
lease-ttl
linger
listen
local
max-queue
nodes
ops
peers
phi
policy
pprof
reliable
resources
seed
shards
think
wire-delta
wire-window`

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
