package transport_test

import (
	"testing"
	"time"

	"mralloc/internal/leakcheck"
	"mralloc/internal/network"
	_ "mralloc/internal/serve" // registers the Client kinds and their samples
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
	"mralloc/internal/wire"
)

// TestSingleMessageSendAllocs pins the cost of one Send on the
// in-process paths at 0 allocations: Mem delivers the message as a
// value, and the latency queue and the unarmed Chaos passthrough carry
// it the same way. This is the unit-level guard of the benchmark's
// allocs_per_op bound on sharded_delay (mem_closed's messages stay on
// their shard runner and never reach a Send).
func TestSingleMessageSendAllocs(t *testing.T) {
	cases := []struct {
		name string
		tr   transport.Transport
	}{
		{"Mem", transport.NewMem(2, 0)},
		{"MemLatency", transport.NewMem(2, time.Microsecond)},
		{"ChaosMemUnarmed", transport.NewChaos(transport.NewMem(2, 0), 1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer c.tr.Close()
			c.tr.Bind(0, 1, func(network.NodeID, network.Message) {})
			var m network.Message = transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1}
			l := transport.Link{From: 0, To: 1}
			// 500 sends stay inside the latency link's queue, so no send
			// waits on the forwarder.
			if got := testing.AllocsPerRun(500, func() { c.tr.Send(l, m) }); got > 0 {
				t.Fatalf("%v allocs per Send, want 0", got)
			}
		})
	}
}

// TestCodecScaffoldingAllocs pins the codec entry points of the request
// path, over the first registered sample of the four kinds one client
// acquire puts on the wire: encoding into a buffer with room allocates
// nothing, and decoding allocates the message and nothing else. The
// encoder and decoder themselves come from pools, and the kind is
// looked up from the frame bytes; a local Enc/Dec (both escape through
// the registered codec functions) and a kind string cost one allocation
// per encode and two per decode on every frame. This is the unit-level
// guard of allocs_per_op on the socket workloads.
func TestCodecScaffoldingAllocs(t *testing.T) {
	if leakcheck.Race {
		// The race detector makes sync.Pool drop wire's pooled Dec at
		// random, so a decode reads one allocation more now and then.
		t.Skip("allocation budgets are measured without the race detector")
	}
	// What the decoded message owns, sample by sample.
	own := map[string]float64{
		"LASS.Request":   4,  // the record, visited list, request slice, the loan request's missing set
		"LASS.Response":  10, // the record, counter and token slices, two tokens (one allocation for both stamp vectors each), a queue, a loan list and its missing set
		"Client.Acquire": 2,  // resource list, interface box
		"Client.Grant":   0,  // one small integer: boxed without allocating
	}
	seen := map[string]bool{}
	buf := make([]byte, 0, 4096)
	for _, m := range wire.Samples() {
		want, ok := own[m.Kind()]
		if !ok || seen[m.Kind()] {
			continue
		}
		seen[m.Kind()] = true
		enc, err := wire.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() { buf, _ = wire.AppendStream(buf[:0], m, nil) }); got > 0 {
			t.Errorf("%s: %v allocs per AppendStream, want 0", m.Kind(), got)
		}
		if got := testing.AllocsPerRun(200, func() { wire.DecodeStream(enc, 0, 0, nil) }); got > want {
			t.Errorf("%s: %v allocs per DecodeStream, the message itself is %v", m.Kind(), got, want)
		}
	}
	if len(seen) != len(own) {
		t.Fatalf("samples cover %v, want every kind of %v", seen, own)
	}
}
