package main

import (
	"net"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/transport"
	"repro/internal/wire"
)

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// TestSilentConnectionDoesNotBlockAccept: a connection that never sends
// its handshake must not hold up the daemon's accept loop. Two clients
// that connect after it are attached — one subscribes, the other
// publishes, the first receives — long before the silent connection's
// handshake deadline expires.
func TestSilentConnectionDoesNotBlockAccept(t *testing.T) {
	addr := freeAddr(t)
	// run serves until the process is signalled; the test binary's exit
	// ends it.
	go func() {
		if err := run([]string{"-id", "b1", "-listen", addr}); err != nil {
			t.Errorf("run: %v", err)
		}
	}()
	var silent net.Conn
	for deadline := time.Now().Add(5 * time.Second); ; {
		var err error
		if silent, err = net.Dial("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon not listening: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer silent.Close()

	deliveries := make(chan wire.Deliver, 64)
	alice := dialClient(t, addr, "alice", transport.ReceiverFunc(func(in transport.Inbound) {
		if in.Msg.Type == wire.TypeDeliver && in.Msg.Deliver != nil {
			deliveries <- *in.Msg.Deliver
		}
	}))
	ticker := dialClient(t, addr, "ticker", transport.ReceiverFunc(func(transport.Inbound) {}))

	f := filter.MustParse(`sym = "ACME"`)
	if err := alice.Send(wire.NewSubscribe(wire.Subscription{Filter: f, Client: "alice", ID: "sub"})); err != nil {
		t.Fatal(err)
	}
	if err := ticker.Send(wire.NewAdvertise(wire.Subscription{Filter: f, Client: "ticker", ID: "adv"})); err != nil {
		t.Fatal(err)
	}
	// The two clients' links are not ordered with each other: publish
	// until the subscription is in place.
	pub := wire.NewPublish(message.New(map[string]message.Value{"sym": message.String("ACME")}))
	every := time.NewTicker(20 * time.Millisecond)
	defer every.Stop()
	timeout := time.After(2 * time.Second)
	for {
		if err := ticker.Send(pub); err != nil {
			t.Fatal(err)
		}
		select {
		case <-deliveries:
			return
		case <-timeout:
			t.Fatal("attached clients exchanged no notification")
		case <-every.C:
		}
	}
}

// dialClient connects a client to the daemon at addr; the handshake must
// complete within 2s.
func dialClient(t *testing.T, addr string, id wire.ClientID, recv transport.Receiver) *transport.TCPLink {
	t.Helper()
	type dialResult struct {
		link *transport.TCPLink
		err  error
	}
	dialed := make(chan dialResult, 1)
	go func() {
		link, err := transport.DialTCPClient(addr, id, recv)
		dialed <- dialResult{link, err}
	}()
	select {
	case r := <-dialed:
		if r.err != nil {
			t.Fatalf("dial client %s: %v", id, r.err)
		}
		t.Cleanup(func() { _ = r.link.Close() })
		return r.link
	case <-time.After(2 * time.Second):
		t.Fatalf("client %s handshake still pending after 2s", id)
		return nil
	}
}
