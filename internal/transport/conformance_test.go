package transport_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
	"mralloc/internal/wire"
)

// discard is a handler for endpoints whose deliveries a test ignores.
func discard(transport.Link, network.Message) {}

// shared returns the fabric of one endpoint hosting every node.
func shared(ep transport.Transport, n int) []transport.Transport {
	eps := make([]transport.Transport, n)
	for i := range eps {
		eps[i] = ep
	}
	return eps
}

// withWire is an endpoint configured with the wire options w,
// whatever Config it is announced.
type withWire struct {
	transport.Transport
	w transport.WireOptions
}

func (e withWire) Configure(cfg transport.Config, deliver transport.Handler) {
	cfg.Wire = e.w
	e.Transport.Configure(cfg, deliver)
}

// memFabric: one in-process endpoint hosts every node.
func memFabric(latency time.Duration) func(t *testing.T, n int) []transport.Transport {
	return func(t *testing.T, n int) []transport.Transport {
		return shared(transport.NewMem(n, latency), n)
	}
}

// tcpEndpoints listens one endpoint per node and connects them — the
// maximally distributed topology.
func tcpEndpoints(t *testing.T, n int) []*transport.TCP {
	t.Helper()
	tcps := make([]*transport.TCP, n)
	addrs := make([]string, n)
	for i := range tcps {
		tr, err := transport.ListenTCP("127.0.0.1:0", n, i)
		if err != nil {
			t.Fatal(err)
		}
		tcps[i] = tr
		addrs[i] = tr.Addr()
	}
	for _, tr := range tcps {
		if err := tr.Connect(addrs); err != nil {
			t.Fatal(err)
		}
	}
	return tcps
}

// tcpFabric: tcpEndpoints as a fabric.
func tcpFabric(t *testing.T, n int) []transport.Transport {
	eps := make([]transport.Transport, n)
	for i, tr := range tcpEndpoints(t, n) {
		eps[i] = tr
	}
	return eps
}

// tcpPairedFabric: two endpoints each hosting half the nodes, so the
// suite also exercises node pairs that share a process (in-memory
// short-circuit) next to pairs that cross the wire.
func tcpPairedFabric(t *testing.T, n int) []transport.Transport {
	half := n / 2
	lo := make([]int, 0, half)
	hi := make([]int, 0, n-half)
	for i := 0; i < n; i++ {
		if i < half {
			lo = append(lo, i)
		} else {
			hi = append(hi, i)
		}
	}
	a, err := transport.ListenTCP("127.0.0.1:0", n, lo...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := transport.ListenTCP("127.0.0.1:0", n, hi...)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, n)
	eps := make([]transport.Transport, n)
	for i := 0; i < n; i++ {
		if i < half {
			addrs[i] = a.Addr()
			eps[i] = a
		} else {
			addrs[i] = b.Addr()
			eps[i] = b
		}
	}
	if err := a.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(addrs); err != nil {
		t.Fatal(err)
	}
	return eps
}

// tcpDeltaFabric: the per-node topology with delta-encoded token
// state on at both ends of every link, so each shard's traffic runs
// over its own codec stream per connection direction.
func tcpDeltaFabric(t *testing.T, n int) []transport.Transport {
	eps := tcpFabric(t, n)
	for i, ep := range eps {
		eps[i] = withWire{ep, transport.WireOptions{Delta: true}}
	}
	return eps
}

// TestTCPRejectsMisshapenFrames plays a peer from a differently
// configured (or hostile) cluster: raw frames with out-of-range site
// ids must be rejected at the codec — error recorded, connection
// dropped, process alive — never delivered into a state machine.
func TestTCPRejectsMisshapenFrames(t *testing.T) {
	tr, err := transport.ListenTCP("127.0.0.1:0", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	delivered := make(chan network.Message, 1)
	tr.Configure(transport.Config{Shards: []int{8}}, func(_ transport.Link, m network.Message) { delivered <- m })

	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A frame claiming to come from node 5 of a 6-node cluster.
	payload := binary.AppendVarint(nil, 5) // from: out of range here
	payload = binary.AppendVarint(payload, 0)
	payload, err = wire.Append(payload, transporttest.Msg{K: transporttest.KindA, From: 5, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(wire.AppendFrame(rawHello(), payload)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for tr.Err() == nil {
		select {
		case m := <-delivered:
			t.Fatalf("misshapen frame delivered: %#v", m)
		case <-deadline:
			t.Fatal("frame neither rejected nor delivered")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case m := <-delivered:
		t.Fatalf("misshapen frame delivered: %#v", m)
	default:
	}
}

func TestMemConformance(t *testing.T) {
	transporttest.TestTransport(t, memFabric(0))
}

func TestMemLatencyConformance(t *testing.T) {
	transporttest.TestTransport(t, memFabric(200*time.Microsecond))
}

func TestTCPConformance(t *testing.T) {
	transporttest.TestTransport(t, tcpFabric)
}

func TestTCPDeltaConformance(t *testing.T) {
	transporttest.TestTransport(t, tcpDeltaFabric)
}

func TestTCPPairedConformance(t *testing.T) {
	transporttest.TestTransport(t, tcpPairedFabric)
}

// TestWiringBugsPanic: a Send before Configure and a second Configure
// are wiring bugs, never runtime conditions, and every fabric and
// wrapper panics on them with a message that names the bug.
func TestWiringBugsPanic(t *testing.T) {
	stacks := []struct {
		name string
		mk   func() transport.Transport
	}{
		{"Mem", func() transport.Transport { return transport.NewMem(2, 0) }},
		{"TCP", func() transport.Transport {
			tr, err := transport.ListenTCP("127.0.0.1:0", 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}},
		{"Chaos", func() transport.Transport { return transport.NewChaos(transport.NewMem(2, 0), 1) }},
		{"Reliable", func() transport.Transport { return transport.NewReliable(transport.NewMem(2, 0)) }},
	}
	mustPanic := func(t *testing.T, want string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("recovered %v, want a panic naming %q", r, want)
			}
		}()
		f()
	}
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			tr := st.mk()
			defer tr.Close()
			mustPanic(t, "Send before Configure", func() {
				tr.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
			})
			tr.Configure(transport.Config{}, discard)
			mustPanic(t, "Configure called twice", func() { tr.Configure(transport.Config{}, discard) })
		})
	}
}
