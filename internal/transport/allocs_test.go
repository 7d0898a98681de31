package transport_test

import (
	"testing"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
)

// TestSingleMessageSendAllocs pins the cost of the commonest run: one
// message. Before Send took a run, a single message travelled as a
// value (Send(from, to, m), linkItem{m: m}, chaosItem{m: m}) and
// allocated nothing on any of these paths — measured at the parent
// commit: Mem 0, Mem with latency 0, unarmed Chaos(Mem) 0 allocs per
// send. A run of one must cost the same: the caller sends from storage
// it owns, and queue items hold a one-message run inline (held). This
// is the unit-level guard of the benchmark's allocs_per_op bound on
// mem_closed and sharded_delay.
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
			run := []network.Message{transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1}}
			l := transport.Link{From: 0, To: 1}
			// 500 runs stay inside the latency link's queue, so no send
			// waits on the forwarder.
			if got := testing.AllocsPerRun(500, func() { c.tr.Send(l, run) }); got > 0 {
				t.Fatalf("%v allocs per 1-message Send, want 0 (the parent commit's)", got)
			}
		})
	}
}
