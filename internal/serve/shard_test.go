package serve_test

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"mralloc/internal/core"
	"mralloc/internal/live"
	"mralloc/internal/serve"
	"mralloc/internal/wire"
)

// startShardedServer is startServer over a G-shard cluster, with the
// server announcing the shard count.
func startShardedServer(t *testing.T, nodes, m, g int) (*live.Cluster, *serve.Server) {
	t.Helper()
	c, err := live.New(live.Config{Nodes: nodes, Resources: m, Shards: g}, core.NewFactory(core.WithLoan()))
	if err != nil {
		t.Fatal(err)
	}
	local := make([]int, nodes)
	for i := range local {
		local[i] = i
	}
	srv, err := serve.NewServer(serve.ServerConfig{
		Listen:    "127.0.0.1:0",
		Nodes:     nodes,
		Resources: m,
		Shards:    g,
		Local:     local,
		Open:      func(node int) (serve.BackendSession, error) { return c.NewSession(node) },
	})
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		c.Close()
	})
	return c, srv
}

// TestClientLearnsShards: the hello reply announces the daemon's shard
// count, and a cross-shard acquire phrased over the global universe
// round-trips through the client port (the backend splits it).
func TestClientLearnsShards(t *testing.T) {
	_, srv := startShardedServer(t, 2, 12, 4)
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hello, err := cl.Hello(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Shards != 4 {
		t.Fatalf("learned %d shards, want 4", hello.Shards)
	}
	// Resources 0 and 11 live in shards 0 and 3.
	release, err := cl.Acquire(ctx, 0, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	release()
}

// TestFlatDaemonAnnouncesOneShard: a daemon configured without a shard
// count is the flat cluster and announces one shard.
func TestFlatDaemonAnnouncesOneShard(t *testing.T) {
	_, srv := startServer(t, 2, 4, serve.FIFO)
	cl, err := serve.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hello, err := cl.Hello(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Shards != 1 {
		t.Fatalf("flat daemon announced %d shards, want 1", hello.Shards)
	}
}

// TestClientPortRejectsShardMismatch: a client hello claiming a shard
// count the daemon does not run is rejected with a reason.
func TestClientPortRejectsShardMismatch(t *testing.T) {
	_, srv := startShardedServer(t, 2, 12, 4)
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := wire.Hello{Version: wire.ProtoVersion, Shards: 2}
	if _, err := c.Write(wire.AppendControl(nil, wire.CtrlHello, wire.AppendHello(nil, h))); err != nil {
		t.Fatal(err)
	}
	if reason := wantReject(t, c); !strings.Contains(reason, "shards") {
		t.Fatalf("reject reason %q", reason)
	}
}
