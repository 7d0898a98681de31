package bouabdallah

import (
	"testing"

	"mralloc/internal/explore"
	"mralloc/internal/resource"
)

// The owed-token inversion. A site h that gets the control token while
// holding a token the control token already promised to an earlier
// registrant w (Last[r] = w, w's INQUIRE still in flight) must NOT
// count r as satisfied: w precedes h in r's chain, so h has to yield to
// w's INQUIRE and re-acquire behind it. Entering the critical section
// on the owed token lets w's INQUIRE pull the token out from under a
// running CS — two sites end up inside the CS on one resource.
//
// The race needs w's direct INQUIRE (w→h) to arrive after the control
// token reached h through a third site (w→z→h): impossible under
// uniform per-link latency (one hop beats two), which is why neither
// the simulation battery nor symmetric-delay fabrics ever caught it —
// the adaptive flush delay was the first asymmetric-delay fabric. This
// test scripts that interleaving on an explore.World, which holds one
// message in flight and delivers the rest in send order, FIFO per
// ordered pair throughout.

func isInquire(m explore.Msg) bool { _, ok := m.M.(inquireMsg); return ok }

func TestMustYieldTokenNotUsableUntilYielded(t *testing.T) {
	const n, m = 3, 2
	const h, z, w = 0, 1, 2 // h re-registers; z relays the CT; w precedes h
	net := explore.New(NewFactory(), n, m)
	rOnly := resource.FromIDs(m, 0)

	// h acquires and releases r: the resource token now lives at h,
	// outside the control token, with Last[r]=h.
	net.Request(h, rOnly.Clone())
	net.Drain(nil)
	if !net.InCS(h) {
		t.Fatal("setup: h never entered its first CS")
	}
	net.Release(h)
	net.Drain(nil)

	// w registers for r: takes the CT (h→w via NT), records itself as
	// Last[r], and sends its INQUIRE to h — which we hold in flight
	// (the slow link).
	net.Request(w, rOnly.Clone())
	net.Drain(isInquire)
	if got := len(net.InFlight()); got != 1 {
		t.Fatalf("after w's registration, %d messages in flight, want just w's INQUIRE", got)
	}

	// z registers for the other resource: the CT travels w→z and z is
	// served from it directly.
	net.Request(z, resource.FromIDs(m, 1))
	net.Drain(isInquire)
	if !net.InCS(z) {
		t.Fatal("z did not enter on the uncontended resource")
	}

	// h asks for r again: the CT arrives z→h (two fast hops beat w's
	// one slow one), h sees Last[r]=w and still holds r — the owed-token
	// case. h must NOT be granted: w precedes it in r's chain.
	net.Request(h, rOnly.Clone())
	net.Drain(isInquire)
	if net.InCS(h) {
		t.Fatal("h entered its CS on a token already promised to w (owed-token inversion)")
	}

	// w's INQUIRE finally lands: h yields r to w; w enters, h waits.
	net.Drain(nil)
	if !net.InCS(w) {
		t.Fatal("w never entered after its INQUIRE was answered")
	}
	if net.InCS(h) {
		t.Fatal("h and w are both inside the CS on r")
	}

	// w releases; h, registered behind w once it had yielded, gets the
	// token back along its own INQUIRE and finally enters.
	net.Release(w)
	net.Drain(nil)
	if !net.InCS(h) {
		t.Fatal("h starved after yielding to w")
	}
}

// TestOwedTokenNotHandedToOvertakingInquire is the liveness twin of the
// inversion above. h holds r owed to w (w's INQUIRE in flight on a slow
// link) when it gets the control token again; q asks for r right after.
// Had h registered at once, q would have queued behind h, and q's
// INQUIRE to h — a different link from w's — could reach h first: h
// cannot tell the two apart, hands w's token to q, and w and h wait on
// each other forever with every later registrant queued behind them
// (the whole cluster wedges — what the TCP and delay-fabric stress
// tiers hit in one run out of six). h must sit the registration out
// until w's INQUIRE has landed.
func TestOwedTokenNotHandedToOvertakingInquire(t *testing.T) {
	const n, m = 4, 2
	const h, z, w, q = 0, 1, 2, 3 // z relays the CT past w's slow link, as above
	net := explore.New(NewFactory(), n, m)
	r := resource.FromIDs(m, 0)
	slow := func(msg explore.Msg) bool { return isInquire(msg) && msg.From == w }

	// The token lives at h, outside the control token, Last[r]=h.
	net.Request(h, r.Clone())
	net.Drain(nil)
	net.Release(h)
	net.Drain(nil)

	// w registers (Last[r]=w); its INQUIRE to h stays in flight. z pulls
	// the CT off w for the other resource, so the CT can reach h without
	// anything overtaking on the w→h link. Then h and q ask for r, and
	// every other message is delivered.
	net.Request(w, r.Clone())
	net.Drain(slow)
	net.Request(z, resource.FromIDs(m, 1))
	net.Drain(slow)
	net.Request(h, r.Clone())
	net.Drain(slow)
	net.Request(q, r.Clone())
	net.Drain(slow)
	contenders := []int{h, w, q}
	for _, id := range contenders {
		if net.InCS(id) {
			t.Fatalf("site %d entered on a token owed to w", id)
		}
	}

	// w's INQUIRE lands: w first, then the other two, one at a time.
	net.Drain(nil)
	var order []int
	for range contenders {
		in := -1
		for _, id := range contenders {
			if net.InCS(id) {
				if in >= 0 {
					t.Fatalf("sites %d and %d are both inside the CS on r", in, id)
				}
				in = id
			}
		}
		if in < 0 {
			t.Fatalf("nobody holds r after %v entered and released: the chain is wedged", order)
		}
		order = append(order, in)
		net.Release(in)
		net.Drain(nil)
	}
	if order[0] != w {
		t.Fatalf("entry order %v, want w (site %d) first", order, w)
	}
}
