package transport_test

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
	"mralloc/internal/wire"
)

// setMsg is a shard-universe-sized test message: its Set decodes only
// when the frame is validated against the right per-shard universe, so
// a misrouted or misvalidated shard frame fails loudly.
type setMsg struct {
	RS resource.Set
}

const kindSet = "TT.Set"

func (m setMsg) Kind() string { return kindSet }

func init() {
	wire.Register(kindSet,
		func(e *wire.Enc, nm network.Message) { e.Set(nm.(setMsg).RS) },
		func(d *wire.Dec) network.Message { return setMsg{RS: d.Set()} })
}

// shardSink binds one (shard, node) slot and collects deliveries.
type shardSink struct {
	mu   sync.Mutex
	got  []network.Message
	from []network.NodeID
}

func (s *shardSink) handler() transport.Handler {
	return func(from network.NodeID, m network.Message) {
		s.mu.Lock()
		s.got = append(s.got, m)
		s.from = append(s.from, from)
		s.mu.Unlock()
	}
}

func (s *shardSink) wait(t *testing.T, n int) []network.Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		if len(s.got) >= n {
			out := append([]network.Message(nil), s.got...)
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t.Fatalf("wanted %d deliveries, got %d", n, len(s.got))
	return nil
}

// shardedPair builds a two-endpoint TCP fabric with both ends
// configured for the same shard layout. (FIFO, stats, late bind and
// close over sharded links are the conformance suite's business; the
// cases here are what only a socket fabric has — per-shard codec
// validation and the hello's shard count.)
func shardedPair(t *testing.T, sizes []int) (a, b *transport.TCP) {
	t.Helper()
	a, b = listenPair(t, transport.WireOptions{}, transport.WireOptions{})
	a.Configure(transport.Config{Shards: sizes})
	b.Configure(transport.Config{Shards: sizes})
	return a, b
}

// TestTCPShardedSetValidation pins per-shard codec validation: a set
// over shard 1's local universe (3 resources) crosses the wire intact
// even though the endpoint's global universe is 10 — the shard tag
// selects sizes[1] as the decode bound — and the legacy shard-0 path
// validates against sizes[0], not the global M.
func TestTCPShardedSetValidation(t *testing.T) {
	sizes := []int{4, 3, 3}
	a, b := shardedPair(t, sizes)
	for shard, sz := range sizes {
		sink := &shardSink{}
		b.Bind(shard, 1, sink.handler())
		rs := resource.FromIDs(sz, 0, resource.ID(sz-1))
		a.Send(transport.Link{Shard: shard, From: 0, To: 1}, setMsg{RS: rs})
		got := sink.wait(t, 1)
		if got[0].(setMsg).RS.String() != rs.String() {
			t.Fatalf("shard %d: set %v, want %v", shard, got[0].(setMsg).RS, rs)
		}
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPShardCountMismatch: a 3-shard endpoint and a flat (one-shard)
// one refuse each other at the handshake whichever of them dials — the
// acceptor records the mismatch and the dialer learns it was rejected.
func TestTCPShardCountMismatch(t *testing.T) {
	for _, flatDials := range []bool{true, false} {
		a, b := listenPair(t, transport.WireOptions{}, transport.WireOptions{})
		a.Configure(transport.Config{Shards: []int{4, 3, 3}})
		dialer, acceptor, link := a, b, transport.Link{From: 0, To: 1}
		if flatDials {
			dialer, acceptor, link = b, a, transport.Link{From: 1, To: 0}
		}
		dialer.Send(link, transporttest.Msg{K: transporttest.KindA, From: link.From, Seq: 1})
		waitErr(t, dialer, "rejected")
		waitErr(t, acceptor, "shards")
	}
}

// TestTCPShardFrameOnFlatEndpoint: a tagged frame arriving at an
// endpoint that never configured shards is a protocol violation, not a
// silent misroute into the flat namespace. The handshake already
// blocks sharded endpoints from connecting here, so play a raw dialer
// whose hello claims no shard count.
func TestTCPShardFrameOnFlatEndpoint(t *testing.T) {
	b, err := transport.ListenTCP("127.0.0.1:0", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sink := &shardSink{}
	b.Bind(0, 1, sink.handler())

	c, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := wire.AppendShardTag(nil, 2)
	payload = binary.AppendVarint(payload, 0) // from
	payload = binary.AppendVarint(payload, 1) // to
	payload, err = wire.Append(payload, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(wire.AppendFrame(rawHello(), payload)); err != nil {
		t.Fatal(err)
	}
	waitErr(t, b, "shard")
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.got) != 0 {
		t.Fatalf("tagged frame delivered to flat endpoint: %v", sink.got)
	}
}
