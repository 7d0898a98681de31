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

// shardSink is an endpoint's handler that collects its deliveries.
type shardSink struct {
	mu    sync.Mutex
	got   []network.Message
	links []transport.Link
}

func (s *shardSink) deliver(l transport.Link, m network.Message) {
	s.mu.Lock()
	s.got = append(s.got, m)
	s.links = append(s.links, l)
	s.mu.Unlock()
}

// wait returns the first n deliveries and the links they came on.
func (s *shardSink) wait(t *testing.T, n int) ([]network.Message, []transport.Link) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		if len(s.got) >= n {
			got, links := s.got[:n:n], s.links[:n:n]
			s.mu.Unlock()
			return got, links
		}
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t.Fatalf("wanted %d deliveries, got %d", n, len(s.got))
	return nil, nil
}

// FIFO, stats, late configuration and close over sharded links are the
// conformance suite's business; the cases here are what only a socket
// fabric has — per-shard codec validation and the hello's shard count.

// TestTCPShardedSetValidation pins per-shard codec validation: a set
// over shard 1's local universe (3 resources) crosses the wire intact
// even though the endpoint's global universe is 10 — the shard tag
// selects sizes[1] as the decode bound — and the legacy shard-0 path
// validates against sizes[0], not the global M.
func TestTCPShardedSetValidation(t *testing.T) {
	sizes := []int{4, 3, 3}
	a, b := listenPair(t)
	sink := &shardSink{}
	a.Configure(transport.Config{Shards: sizes}, discard)
	b.Configure(transport.Config{Shards: sizes}, sink.deliver)
	for shard, sz := range sizes {
		rs := resource.FromIDs(sz, 0, resource.ID(sz-1))
		a.Send(transport.Link{Shard: shard, From: 0, To: 1}, setMsg{RS: rs})
		got, links := sink.wait(t, shard+1)
		if m := got[shard].(setMsg); links[shard].Shard != shard || m.RS.String() != rs.String() {
			t.Fatalf("shard %d: set %v on shard %d, want %v", shard, m.RS, links[shard].Shard, rs)
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
		a, b := listenPair(t)
		a.Configure(transport.Config{Shards: []int{4, 3, 3}}, discard)
		b.Configure(transport.Config{}, discard)
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
// endpoint configured flat (no layout) is a protocol violation, not a
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
	b.Configure(transport.Config{}, sink.deliver)

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
