package transport

import (
	"net"
	"testing"
)

// TestTCPLinkUsesRawSocketIO: on Linux a link over a *net.TCPConn reads
// and writes through the raw socket path, and a link over a connection
// that exposes no file descriptor (net.Pipe) falls back to conn.Read and
// net.Buffers.WriteTo. A refactor that loses the raw path fails here, not
// silently in the benchmark.
func TestTCPLinkUsesRawSocketIO(t *testing.T) {
	client, server := tcpPair(t, &sink{})
	for name, l := range map[string]*TCPLink{"client": client, "server": server} {
		if _, ok := l.sock.(*rawSocket); !ok {
			t.Errorf("%s TCP link uses %T, want *rawSocket", name, l.sock)
		}
	}

	local, remote := net.Pipe()
	go func() {
		defer remote.Close()
		_, _ = readFrame(remote, maxIdentitySize)
		_ = writeFrame(remote, []byte("server"))
	}()
	pl, err := AcceptTCP(local, "client", &sink{})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if _, ok := pl.sock.(plainIO); !ok {
		t.Errorf("net.Pipe link uses %T, want plainIO", pl.sock)
	}
}
