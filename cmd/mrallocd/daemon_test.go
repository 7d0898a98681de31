package main

import (
	"bytes"
	"context"
	"flag"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mralloc/internal/serve"
)

// freeAddrs reserves n loopback ports and releases them for the
// daemons to bind.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// TestDaemonPairServesAndDrains assembles two whole daemons from their
// command lines, each with a client port, drives both through
// serve.Dial so tokens cross the link in both directions, then cancels
// them: each must drain, report and return nil. A break anywhere in the daemon wiring
// (flags → transport → live → client port → shutdown) fails here.
func TestDaemonPairServesAndDrains(t *testing.T) {
	addrs := freeAddrs(t, 4)
	peers, clientPorts := addrs[:2], addrs[2:]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type daemon struct {
		out bytes.Buffer
		err chan error
	}
	daemons := make([]*daemon, 2)
	for i := range daemons {
		var cfg daemonConfig
		fs := flag.NewFlagSet("mrallocd", flag.ContinueOnError)
		registerFlags(fs, &cfg)
		args := []string{"-nodes=2", "-resources=16", "-local", strconv.Itoa(i), "-listen", peers[i],
			"-peers", strings.Join(peers, ","), "-client-listen", clientPorts[i]}
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		d := &daemon{err: make(chan error, 1)}
		daemons[i] = d
		go func() { d.err <- run(ctx, cfg, &d.out) }()
	}

	// Two sessions per daemon, twenty cycles each, over sets drawn from
	// all 16 resources: every token changes daemons many times.
	var wg sync.WaitGroup
	for i, addr := range clientPorts {
		var cl *serve.Client
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			var err error
			if cl, err = serve.Dial(addr); err == nil {
				break
			}
			select {
			case err := <-daemons[i].err:
				t.Fatalf("daemon %d exited during start-up: %v\n%s", i, err, daemons[i].out.String())
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon %d: client port never came up: %v", i, err)
			}
		}
		defer cl.Close()
		for s := 0; s < 2; s++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for op := 0; op < 20; op++ {
					actx, acancel := context.WithTimeout(ctx, time.Minute)
					release, err := cl.Acquire(actx, serve.AnyNode, rng.Perm(16)[:1+rng.Intn(4)]...)
					acancel()
					if err != nil {
						t.Errorf("daemon %d acquire %d: %v", i, op, err)
						return
					}
					release()
				}
			}(int64(2*i + s))
		}
	}
	wg.Wait()

	cancel()
	for i, d := range daemons {
		select {
		case err := <-d.err:
			if err != nil {
				t.Errorf("daemon %d: run returned %v", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("daemon %d did not shut down", i)
		}
		out := d.out.String()
		if !strings.Contains(out, "drained — owned tokens handed off") {
			t.Errorf("daemon %d did not drain:\n%s", i, out)
		}
		if !strings.Contains(out, "LASS.Response") {
			t.Errorf("daemon %d sent no token: tokens did not cross the link in both directions:\n%s", i, out)
		}
	}
}
