package live

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"mralloc/internal/alg"
	"mralloc/internal/network"
	"mralloc/internal/resource"
	"mralloc/internal/transport"
)

// kindMsg is a message whose kind is its whole content.
type kindMsg string

func (k kindMsg) Kind() string { return string(k) }

// TestStatsConcurrentFirstMessages races the first message of several
// kinds from several goroutines — the one moment the per-kind counter
// takes its slow path — and checks that no count is lost and no kind
// appears twice.
func TestStatsConcurrentFirstMessages(t *testing.T) {
	const senders, kinds, each = 8, 6, 200
	msgs := make([]network.Message, kinds)
	for k := range msgs {
		msgs[k] = kindMsg(fmt.Sprintf("k%d", k))
	}
	var st kindStats
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < each*kinds; i++ {
				// Rotate from a different kind per sender, so first
				// messages of distinct kinds collide too.
				st.count(msgs[(g+i)%kinds])
			}
		}()
	}
	close(start)
	wg.Wait()
	got := st.snapshot()
	if len(got) != kinds {
		t.Fatalf("stats has %d kinds, want %d: %v", len(got), kinds, got)
	}
	for k, v := range got {
		if v != senders*each {
			t.Errorf("%s = %d, want %d", k, v, senders*each)
		}
	}
}

// tallyNode counts what it received, by kind; it sends nothing itself.
type tallyNode struct{ got map[string]int64 }

func (*tallyNode) Attach(alg.Env)       {}
func (*tallyNode) Request(resource.Set) {}
func (*tallyNode) Release()             {}
func (n *tallyNode) Deliver(_ network.NodeID, m network.Message) {
	n.got[m.Kind()]++
}

// TestStatsCountsWhatSitesSent: on every route a message can take,
// Cluster.Stats equals, kind by kind, the sends the sites made — no
// wrapper's envelope or ack shows up as a kind, a message a fault
// dropped still counts (it was sent), and a chaos duplicate does not
// count twice. Receivers then see every message exactly once, or, on a
// bare Chaos with duplication armed, once plus once per duplicate.
func TestStatsCountsWhatSitesSent(t *testing.T) {
	const n, shards, each = 3, 2, 40
	routes := []struct {
		name string
		cfg  func() (Config, *transport.Chaos)
		// exact: the receivers see each message once.
		exact bool
	}{
		{"direct", func() (Config, *transport.Chaos) { return Config{}, nil }, true},
		{"latency", func() (Config, *transport.Chaos) { return Config{Latency: time.Millisecond}, nil }, true},
		{"mem", func() (Config, *transport.Chaos) {
			return Config{Transport: transport.NewMem(n, 0)}, nil
		}, true},
		{"reliable-chaos-mem", func() (Config, *transport.Chaos) {
			ch := transport.NewChaos(transport.NewMem(n, 0), 0x5ca1e)
			ch.Apply(transport.Spec{Faults: transport.Faults{Drop: 0.2, Dup: 0.2}})
			rel := transport.NewReliable(ch)
			rel.SetRetransmit(2*time.Millisecond, 20*time.Millisecond)
			return Config{Transport: rel}, ch
		}, true},
		{"chaos-mem", func() (Config, *transport.Chaos) {
			ch := transport.NewChaos(transport.NewMem(n, 0), 0xd0b1e)
			ch.Apply(transport.Spec{Faults: transport.Faults{Dup: 0.3}})
			return Config{Transport: ch}, ch
		}, false},
	}
	for _, rt := range routes {
		t.Run(rt.name, func(t *testing.T) {
			cfg, ch := rt.cfg()
			cfg.Nodes, cfg.Resources, cfg.Shards = n, 4, shards
			var sites [][]*tallyNode // [shard][node]
			c, err := New(cfg, func(n, m int) []alg.Node {
				nodes := make([]alg.Node, n)
				shard := make([]*tallyNode, n)
				for i := range nodes {
					shard[i] = &tallyNode{got: map[string]int64{}}
					nodes[i] = shard[i]
				}
				sites = append(sites, shard)
				return nodes
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			kinds := [...]string{"Ping", "Pong", "Token"}
			sent := map[string]int64{}
			for s := 0; s < shards; s++ {
				c.InspectShard(s, 0, func(alg.Node) {
					for from := 0; from < n; from++ {
						for to := 0; to < n; to++ {
							if from == to {
								continue
							}
							for i := 0; i < each; i++ {
								k := kinds[(from+to+i)%len(kinds)]
								c.loops[s][from].Send(network.NodeID(to), kindMsg(k))
								sent[k]++
							}
						}
					}
				})
			}
			if got := c.Stats(); !maps.Equal(got, sent) {
				t.Errorf("Stats %v, the sites sent %v", got, sent)
			}

			var total, want int64
			for _, v := range sent {
				want += v
			}
			if !rt.exact {
				want += ch.ChaosStats().Duplicated
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				total = 0
				for s := 0; s < shards; s++ {
					c.InspectShard(s, 0, func(alg.Node) {
						for _, site := range sites[s] {
							for _, v := range site.got {
								total += v
							}
						}
					})
				}
				if total >= want || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if total != want {
				t.Errorf("receivers got %d messages, want %d", total, want)
			}
			if ch != nil {
				cs := ch.ChaosStats()
				if cs.Duplicated == 0 {
					t.Errorf("no duplicates injected: %+v", cs)
				}
				if rt.exact && cs.Dropped == 0 {
					t.Errorf("no drops injected: %+v", cs)
				}
			}
			if got := c.Stats(); !maps.Equal(got, sent) {
				t.Errorf("after delivery: Stats %v, the sites sent %v", got, sent)
			}
		})
	}
}
