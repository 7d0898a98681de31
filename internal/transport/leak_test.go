package transport_test

import (
	"sync"
	"testing"
	"time"

	"mralloc/internal/leakcheck"
	"mralloc/internal/network"
	"mralloc/internal/transport"
	"mralloc/internal/transport/transporttest"
)

// The coalesced egress puts a flusher goroutine behind every dialed
// connection; these tests pin the Close contract — no flusher (or
// accept/serve/forwarder goroutine) outlives its fabric, whichever
// state the connection is in when Close runs.

func TestTCPCloseLeaksNoGoroutines(t *testing.T) {
	check := leakcheck.Check(t)
	eps := tcpFabric(t, 3)
	done := make(chan struct{}, 64)
	for _, ep := range eps {
		ep.Configure(transport.Config{}, func(transport.Link, network.Message) { done <- struct{}{} })
	}
	// Traffic on several pairs: dials conns, starts flushers both ways.
	want := 0
	for from := 0; from < 3; from++ {
		for to := 0; to < 3; to++ {
			if from == to {
				continue
			}
			want++
			eps[from].Send(transport.Link{From: network.NodeID(from), To: network.NodeID(to)},
				transporttest.Msg{K: transporttest.KindA, From: network.NodeID(from), Seq: 1})
		}
	}
	for i := 0; i < want; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("delivery timed out")
		}
	}
	closeAll(t, eps)
	check()
}

// TestTCPCloseMidTrafficLeaksNoGoroutines closes while senders still
// queue frames: flushers must drain-or-abandon and exit either way.
func TestTCPCloseMidTrafficLeaksNoGoroutines(t *testing.T) {
	check := leakcheck.Check(t)
	eps := tcpFabric(t, 2)
	for _, ep := range eps {
		ep.Configure(transport.Config{}, discard)
	}
	stop := make(chan struct{})
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		var seq int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq++
			eps[0].Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: seq})
		}
	}()
	time.Sleep(20 * time.Millisecond) // let a backlog form
	closeAll(t, eps)
	close(stop)
	<-sent
	check()
}

func TestMemLatencyCloseLeaksNoGoroutines(t *testing.T) {
	check := leakcheck.Check(t)
	m := transport.NewMem(4, 100*time.Microsecond)
	got := make(chan struct{}, 64)
	m.Configure(transport.Config{}, func(transport.Link, network.Message) { got <- struct{}{} })
	// The first send starts the 0→1 forwarder.
	m.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
	m.Send(transport.Link{From: 0, To: 1}, transporttest.Msg{K: transporttest.KindB, From: 0, Seq: 2})
	m.Send(transport.Link{From: 0, To: 2}, transporttest.Msg{K: transporttest.KindA, From: 0, Seq: 1})
	for i := 0; i < 3; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("delivery timed out")
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestMemSendRacingCloseLeaksNothing races Sends that open fresh
// latency links, each starting its link's forwarder, against Close: a
// forwarder must start before Close waits for the forwarders or not at
// all. A start after the wait began is a WaitGroup Add racing its Wait,
// which -race reports, and a goroutine that outlives Close.
func TestMemSendRacingCloseLeaksNothing(t *testing.T) {
	check := leakcheck.Check(t)
	const shards = 16
	for range 200 {
		m := transport.NewMem(2, time.Millisecond)
		m.Configure(transport.Config{Shards: make([]int, shards)}, discard)
		var wg sync.WaitGroup
		for s := range shards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Send(transport.Link{Shard: s, From: 0, To: 1}, transporttest.Msg{K: transporttest.KindA, Seq: 1})
			}()
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
	check()
}
