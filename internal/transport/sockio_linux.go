package transport

import (
	"io"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// maxIovecs is the kernel's IOV_MAX: one writev takes at most this many
// buffers, so a larger batch goes out in several calls (as net.Buffers
// splits it).
const maxIovecs = 1024

// rawSocket is a link's socket I/O on Linux: read and writev are issued
// with syscall.RawSyscall from inside syscall.RawConn callbacks, so they
// bypass the scheduler's entersyscall/exitsyscall path. That path
// futex-wakes the runtime's sysmon thread whenever sysmon is parked in
// sysmonwait — which it is each time a broker's only P goes idle, i.e.
// between messages at open-loop rates — so every socket call cost a
// sysmon wake-up and two context switches. Hiding the call from the
// scheduler is safe because the net package keeps every socket
// non-blocking: read and writev return at once, with EAGAIN when they
// would block, and the callback then returns false so the goroutine parks
// on the netpoller exactly as conn.Read and conn.Write do (deadlines and
// Close included).
type rawSocket struct {
	conn net.Conn
	rc   syscall.RawConn

	// The callbacks are bound once, so a call allocates no closure; their
	// arguments and results travel in these fields. rbuf/rn/rerr belong
	// to the reader goroutine, iovs/iov/werr to the writer goroutine.
	readFn, writeFn func(fd uintptr) bool
	rbuf            []byte
	rn              int
	rerr            syscall.Errno
	iovs            []syscall.Iovec // the batch's iovecs; backing array kept
	iov             []syscall.Iovec // the part of iovs not yet written
	werr            error
}

// newSocketIO returns the raw path for any connection that exposes its
// file descriptor (every *net.TCPConn), and conn's own Read and
// net.Buffers.WriteTo for any other (net.Pipe in tests).
func newSocketIO(conn net.Conn) socketIO {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return plainIO{conn}
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return plainIO{conn}
	}
	s := &rawSocket{conn: conn, rc: rc}
	s.readFn, s.writeFn = s.rawRead, s.rawWritev
	return s
}

// Read implements io.Reader with conn.Read's results: EINTR retries, a
// 0-byte read is io.EOF, and errors are *net.OpError.
func (s *rawSocket) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	s.rbuf, s.rn, s.rerr = p, 0, 0
	err := s.rc.Read(s.readFn)
	s.rbuf = nil // a large frame's own buffer must not outlive its read
	switch {
	case err != nil:
		return 0, s.opError("read", err)
	case s.rerr != 0:
		return 0, s.opError("read", os.NewSyscallError("read", s.rerr))
	case s.rn == 0:
		return 0, io.EOF
	}
	return s.rn, nil
}

func (s *rawSocket) rawRead(fd uintptr) bool {
	for {
		n, _, errno := syscall.RawSyscall(syscall.SYS_READ, fd,
			uintptr(unsafe.Pointer(&s.rbuf[0])), uintptr(len(s.rbuf)))
		switch errno {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		case 0:
			s.rn = int(n)
		default:
			s.rerr = errno
		}
		return true
	}
}

// writeBuffers writes every byte of bufs, in order, as writev calls of at
// most maxIovecs buffers, consuming partial writes; it returns once all
// is written or on the first error (a *net.OpError, as conn.Write's).
func (s *rawSocket) writeBuffers(bufs net.Buffers) error {
	iov := s.iovs[:0]
	for _, b := range bufs {
		if len(b) > 0 {
			iov = append(iov, syscall.Iovec{Base: &b[0]})
			iov[len(iov)-1].SetLen(len(b))
		}
	}
	s.iovs, s.iov, s.werr = iov, iov, nil
	if err := s.rc.Write(s.writeFn); err != nil {
		return s.opError("writev", err)
	}
	if s.werr != nil {
		return s.opError("writev", s.werr)
	}
	return nil
}

// rawWritev writes s.iov, dropping what the kernel took; it returns false
// (park until writable) on EAGAIN with the rest still in s.iov.
func (s *rawSocket) rawWritev(fd uintptr) bool {
	for len(s.iov) > 0 {
		iov := s.iov[:min(len(s.iov), maxIovecs)]
		n, _, errno := syscall.RawSyscall(syscall.SYS_WRITEV, fd,
			uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
		switch errno {
		case 0:
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			s.werr = os.NewSyscallError("writev", errno)
			return true
		}
		if n == 0 {
			s.werr = io.ErrUnexpectedEOF
			return true
		}
		s.consume(int(n))
	}
	return true
}

// consume drops the first n written bytes from s.iov.
func (s *rawSocket) consume(n int) {
	for n > 0 {
		v := &s.iov[0]
		if n < int(v.Len) {
			v.Base = (*byte)(unsafe.Add(unsafe.Pointer(v.Base), n))
			v.SetLen(int(v.Len) - n)
			return
		}
		n -= int(v.Len)
		s.iov = s.iov[1:]
	}
}

// opError reports err as the net package reports a failed conn.Read or
// conn.Write: RawConn's own "raw-read"/"raw-write" wrapper is replaced by
// op, so a closed or timed-out socket reads as before.
func (s *rawSocket) opError(op string, err error) error {
	if oe, ok := err.(*net.OpError); ok {
		err = oe.Err
	}
	return &net.OpError{Op: op, Net: s.conn.LocalAddr().Network(),
		Source: s.conn.LocalAddr(), Addr: s.conn.RemoteAddr(), Err: err}
}
