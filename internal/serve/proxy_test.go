package serve

import (
	"fmt"
	"io"
	"net"
	"sync"
)

// proxy is a TCP pass-through with a kill switch: it forwards every
// accepted connection to a fixed target and can sever all of them
// mid-stream on demand. The serve layer's client connections do not go
// through the Transport interface, so connection-kill chaos for them is
// injected here, between client and daemon, instead of inside an
// endpoint.
type proxy struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	conns  map[net.Conn]bool // both halves of every live relay
	closed bool
	wg     sync.WaitGroup
}

// newProxy starts a proxy on a loopback ephemeral port relaying to
// target.
func newProxy(target string) (*proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("proxy listen: %w", err)
	}
	p := &proxy{ln: ln, target: target, conns: make(map[net.Conn]bool)}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr reports the address clients dial.
func (p *proxy) Addr() string { return p.ln.Addr().String() }

func (p *proxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			up.Close()
			return
		}
		p.conns[c] = true
		p.conns[up] = true
		p.mu.Unlock()
		relay := func(dst, src net.Conn) {
			defer p.wg.Done()
			io.Copy(dst, src)
			// Either side dying severs the pair: half-open relays would
			// hide the failure the kill is supposed to inject.
			dst.Close()
			src.Close()
			p.mu.Lock()
			delete(p.conns, dst)
			delete(p.conns, src)
			p.mu.Unlock()
		}
		p.wg.Add(2)
		go relay(up, c)
		go relay(c, up)
	}
}

// KillConns forcibly closes every live relayed connection (both
// halves), reporting how many client connections died.
func (p *proxy) KillConns() int {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns) / 2
}

// Close stops the proxy and severs every relay. Idempotent.
func (p *proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.KillConns()
	p.wg.Wait()
	return nil
}
