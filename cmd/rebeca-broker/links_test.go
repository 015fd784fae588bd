package main

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/message"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestWatchersCloseWhatThePeerClosed: once the remote end of a client or
// peer link closes, the daemon's watcher detaches or removes it and then
// closes the server-side link too — no CLOSE_WAIT socket, no parked
// writer — so a later Send on it reports ErrLinkClosed.
func TestWatchersCloseWhatThePeerClosed(t *testing.T) {
	b := broker.New("b1", broker.Options{})
	b.Start()
	defer b.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *transport.TCPLink)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				close(accepted)
				return
			}
			if link, err := transport.AcceptTCP(conn, "b1", b); err == nil {
				accepted <- link
			}
		}
	}()
	stop := make(chan struct{})
	defer close(stop)
	nop := transport.ReceiverFunc(func(transport.Inbound) {})
	probe := wire.NewPublish(message.New(map[string]message.Value{"x": message.Int(1)}))

	for _, tc := range []struct {
		name  string
		dial  func() (*transport.TCPLink, error)
		watch func(link *transport.TCPLink, onDown func()) error
	}{
		{"client",
			func() (*transport.TCPLink, error) { return transport.DialTCPClient(ln.Addr().String(), "alice", nop) },
			func(link *transport.TCPLink, onDown func()) error {
				if err := b.AttachRemoteClient("alice", link); err != nil {
					return err
				}
				watchClientLink(b, "alice", link, stop, onDown)
				return nil
			}},
		{"peer",
			func() (*transport.TCPLink, error) { return transport.DialTCP(ln.Addr().String(), "b2", nop) },
			func(link *transport.TCPLink, onDown func()) error {
				if err := b.AddLink("b2", link); err != nil {
					return err
				}
				watchPeerLink(b, "b2", link, stop, onDown)
				return nil
			}},
	} {
		remote, err := tc.dial()
		if err != nil {
			t.Fatal(err)
		}
		server := <-accepted
		down := make(chan struct{})
		if err := tc.watch(server, func() { close(down) }); err != nil {
			t.Fatal(err)
		}
		if err := remote.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case <-down:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: watcher did not react to the remote close", tc.name)
		}
		if err := server.Send(probe); !errors.Is(err, transport.ErrLinkClosed) {
			t.Errorf("%s: Send on the server side after the remote closed = %v, want ErrLinkClosed", tc.name, err)
		}
	}
	if n := b.Neighbors(); len(n) != 0 {
		t.Errorf("neighbors after the peer left: %v", n)
	}
}
