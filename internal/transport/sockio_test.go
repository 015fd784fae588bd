package transport

import (
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/message"
	"repro/internal/wire"
)

// The tests in this file drive a TCPLink's socket I/O (sockio_linux.go on
// Linux) through the kernel's slow paths: full socket buffers, partial
// writes, write deadlines, and a peer that closes or resets.

// smallBufPair connects a client link, whose socket has a sndBuf-byte
// send buffer, to a server link on a socket with a rcvBuf-byte receive
// buffer; both are closed when the test ends.
func smallBufPair(t *testing.T, serverRecv Receiver, sndBuf, rcvBuf int, opts ...TCPOption) (client, server *TCPLink) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *TCPLink, 1)
	go func() {
		defer close(accepted)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_ = conn.(*net.TCPConn).SetReadBuffer(rcvBuf)
		if l, err := AcceptTCP(conn, "server", serverRecv); err == nil {
			accepted <- l
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.(*net.TCPConn).SetWriteBuffer(sndBuf)
	client, err = newTCPLink(conn, "client", &sink{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	server, ok := <-accepted
	if !ok {
		t.Fatal("server side of the handshake failed")
	}
	t.Cleanup(func() { _ = server.Close() })
	return client, server
}

// handshakeOnly accepts one connection on a fresh listener, answers the
// handshake as "server", and hands the raw connection to serve; it
// returns the listener's address.
func handshakeOnly(t *testing.T, serve func(*net.TCPConn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if _, err := readFrame(conn, maxIdentitySize); err != nil {
			_ = conn.Close()
			return
		}
		if err := writeFrame(conn, []byte("server")); err != nil {
			_ = conn.Close()
			return
		}
		serve(conn.(*net.TCPConn))
	}()
	return ln.Addr().String()
}

// TestTCPLinkSlowReaderBurst: a receiver that stops reading after its
// first frame, small fixed socket buffers on both ends, and a 2 000-frame
// burst behind it — 4 000 iovecs, more than one writev takes (IOV_MAX =
// 1024), and 2 MB against buffers of a few hundred KiB — so the writer
// sees EAGAIN, partial writes that end mid-buffer, and batches it must
// split. Every frame arrives intact and in order, and Flush reports
// success.
func TestTCPLinkSlowReaderBurst(t *testing.T) {
	const n = 2000
	pad := strings.Repeat("p", 1000)
	release := make(chan struct{})
	got := make(chan wire.Message, n)
	first := true
	recv := ReceiverFunc(func(in Inbound) {
		if first {
			first = false
			<-release
		}
		got <- in.Msg
	})
	client, _ := smallBufPair(t, recv, 16<<10, 128<<10, WithSendWindow(flow.Options{}))
	for i := int64(0); i < n; i++ {
		m := wire.NewPublish(message.New(map[string]message.Value{
			"i": message.Int(i), "pad": message.String(pad),
		}))
		if err := client.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := client.Flush(); err != nil {
		t.Fatalf("Flush = %v", err)
	}
	timeout := time.After(10 * time.Second)
	for want := int64(0); want < n; want++ {
		select {
		case m := <-got:
			i, _ := m.Notif.Get("i")
			p, _ := m.Notif.Get("pad")
			if i.IntVal() != want || p.Str() != pad {
				t.Fatalf("frame %d arrived as i=%d with a %d-byte pad", want, i.IntVal(), len(p.Str()))
			}
		case <-timeout:
			t.Fatalf("received %d of %d frames", want, n)
		}
	}
}

// TestTCPLinkWriteDeadlineFailsFlush: against a peer that never reads, a
// write deadline fails the blocked writer with os.ErrDeadlineExceeded,
// and Flush returns that error promptly — the bound Close's drain relies
// on.
func TestTCPLinkWriteDeadlineFailsFlush(t *testing.T) {
	stalled := make(chan struct{})
	t.Cleanup(func() { close(stalled) })
	addr := handshakeOnly(t, func(conn *net.TCPConn) {
		_ = conn.SetReadBuffer(4096)
		<-stalled
		_ = conn.Close()
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.(*net.TCPConn).SetWriteBuffer(4096)
	cl, err := newTCPLink(conn, "client", &sink{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	_ = conn.SetWriteDeadline(time.Now().Add(5 * time.Millisecond))
	big := wire.NewPublish(message.New(map[string]message.Value{
		"pad": message.String(strings.Repeat("x", 1<<16)),
	}))
	start := time.Now()
	for i := 0; i < 64; i++ {
		if err := cl.Send(big); err != nil {
			break // the writer already failed and poisoned the link
		}
	}
	err = cl.Flush()
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Flush = %v, want os.ErrDeadlineExceeded", err)
	}
	if !strings.HasPrefix(err.Error(), "transport: write: ") {
		t.Errorf("Flush error %q lost its transport: write: prefix", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Flush took %v to report the deadline", elapsed)
	}
}

// TestTCPLinkPeerCloseAndReset: the reader ends — Done closes — both
// when the peer closes cleanly (read returns 0 bytes: io.EOF) and when it
// resets the connection (SO_LINGER 0: ECONNRESET), and a frame the peer
// sent before closing is still delivered.
func TestTCPLinkPeerCloseAndReset(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reset bool
	}{{"close", false}, {"reset", true}} {
		t.Run(tc.name, func(t *testing.T) {
			addr := handshakeOnly(t, func(conn *net.TCPConn) {
				payload, err := wire.Encode(pubMsg(7))
				if err == nil {
					_ = writeFrame(conn, payload)
				}
				if tc.reset {
					_ = conn.SetLinger(0)
				}
				_ = conn.Close()
			})
			got := make(chan Inbound, 1)
			cl, err := DialTCP(addr, "client", ReceiverFunc(func(in Inbound) { got <- in }))
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			select {
			case <-cl.Done():
			case <-time.After(5 * time.Second):
				t.Fatal("reader still running after the peer went away")
			}
			if !tc.reset {
				select {
				case in := <-got:
					if msgIndex(in) != 7 {
						t.Errorf("got frame %d, want 7", msgIndex(in))
					}
				default:
					t.Error("the frame sent before the close was lost")
				}
			}
		})
	}
}
