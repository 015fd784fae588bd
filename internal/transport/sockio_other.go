//go:build !linux

package transport

import "net"

// newSocketIO returns conn's own Read and net.Buffers.WriteTo: the raw
// socket path (sockio_linux.go) exists only on Linux.
func newSocketIO(conn net.Conn) socketIO { return plainIO{conn} }
