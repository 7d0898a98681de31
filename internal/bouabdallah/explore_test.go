package bouabdallah

import (
	"fmt"
	"testing"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/explore"
	"mralloc/internal/naimitrehel"
	"mralloc/internal/resource"
)

// tokenInvariant is the algorithm's conservation law, checked at every
// explored state: one control token, at a site or in flight, and every
// resource token in exactly one place — inside the control token, held
// by a site, or in flight to one.
func tokenInvariant(nodes []alg.Node, inflight []explore.Msg) error {
	var cts []*ControlToken
	held := map[resource.ID]int{}
	for _, a := range nodes {
		nd := a.(*Node)
		if nd.nt.HasToken() {
			cts = append(cts, nd.nt.Payload().(*ControlToken))
		}
		nd.holding.ForEach(func(r resource.ID) { held[r]++ })
	}
	for _, x := range inflight {
		switch m := x.M.(type) {
		case ctWire:
			if m.M.Type == naimitrehel.MsgToken {
				cts = append(cts, m.M.Payload.(*ControlToken))
			}
		case resTokenMsg:
			held[m.R]++
		}
	}
	if len(cts) != 1 {
		return fmt.Errorf("%d control tokens", len(cts))
	}
	for r, in := range cts[0].HasToken {
		if in {
			held[resource.ID(r)]++
		}
		if held[resource.ID(r)] != 1 {
			return fmt.Errorf("r%d has %d tokens", r, held[resource.ID(r)])
		}
	}
	return nil
}

// TestExploreBouabdallah searches every schedule of the committed shapes,
// the two scripted races above among them (the owed-token inversion at
// N = 3, the overtaking INQUIRE at N = 4), checking safety, hypothesis 4
// and token conservation at every state and liveness at every terminal
// one. Each search must complete. -short keeps the N = 2 shapes.
func TestExploreBouabdallah(t *testing.T) {
	for _, sh := range explore.Shapes() {
		if testing.Short() && sh.N > 2 {
			continue
		}
		start := time.Now()
		res := explore.Search(NewFactory(), sh, explore.Options{Invariant: tokenInvariant})
		t.Logf("%-14s %v (%v)", sh.Name, res, time.Since(start).Round(time.Millisecond))
		if !res.Complete {
			t.Errorf("%s: %v", sh.Name, res)
		}
	}
}
