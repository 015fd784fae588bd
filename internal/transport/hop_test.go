package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/message"
	"repro/internal/wire"
)

// TestTCPLinkSendBatchShedsOverWindow: a SendBatch of more publishes than
// a ShedNewest ring holds, against a peer that is not reading, is
// admitted as one burst — the ring keeps its capacity's worth and sheds
// the rest. Flush still returns (the shed frames gave their flush slots
// back), the shed count is exact, the peer later reads exactly the
// admitted frames, and Close returns nil.
func TestTCPLinkSendBatchShedsOverWindow(t *testing.T) {
	const capacity, burst = 8, 50
	read := make(chan int, 1)
	startRead := make(chan struct{})
	addr := handshakeOnly(t, func(conn *net.TCPConn) {
		defer conn.Close()
		<-startRead
		n := 0
		_ = conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		for {
			if _, err := readFrame(conn, maxFrameSize); err != nil {
				break
			}
			n++
		}
		read <- n
	})
	cl, err := DialTCP(addr, "client", &sink{},
		WithSendWindow(flow.Options{Capacity: capacity, Policy: flow.ShedNewest}))
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]wire.Message, burst)
	for i := range ms {
		ms[i] = pubMsg(int64(i))
	}
	if err := cl.SendBatch(ms); err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- cl.Flush() }()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatalf("Flush = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush did not return: shed frames kept their flush slots")
	}
	s := cl.FlowStats()
	if s.Pushed != capacity || s.ShedNewest != burst-capacity {
		t.Errorf("pushed %d, shed %d; want %d and %d", s.Pushed, s.ShedNewest, capacity, burst-capacity)
	}
	close(startRead)
	if got := <-read; got != int(s.Pushed) {
		t.Errorf("peer read %d frames, the ring admitted %d", got, s.Pushed)
	}
	if err := cl.Close(); err != nil {
		t.Errorf("Close = %v, want nil", err)
	}
}

// recordingIO is a socketIO that records what each writeBuffers call
// hands it.
type recordingIO struct {
	writes [][]byte
	iovecs []int
}

func (r *recordingIO) Read([]byte) (int, error) { return 0, io.EOF }

func (r *recordingIO) writeBuffers(bufs net.Buffers) error {
	var w []byte
	for _, b := range bufs {
		w = append(w, b...)
	}
	r.writes = append(r.writes, w)
	r.iovecs = append(r.iovecs, len(bufs))
	return nil
}

// TestFrameWriterCoalesces: the writer puts a drain on the wire byte for
// byte in order — small frames copied into its fixed buffer, frames over
// coalesceMax as {header, payload} iovecs of their own — writing once per
// coalesceSize bytes of small frames and never growing the buffer.
func TestFrameWriterCoalesces(t *testing.T) {
	sizes := []int{1, coalesceMax, coalesceMax + 1, 40, 3 << 16, 17}
	var batch []tcpFrame
	var want []byte
	for i := 0; len(want) < 5*coalesceSize; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, sizes[i%len(sizes)])
		fr := tcpFrame{payload: payload}
		binary.BigEndian.PutUint32(fr.hdr[:], uint32(len(payload)))
		batch = append(batch, fr)
		want = append(want, fr.hdr[:]...)
		want = append(want, payload...)
	}
	sock := &recordingIO{}
	w := frameWriter{sock: sock, coal: make([]byte, 0, coalesceSize)}
	if err := w.write(batch); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Join(sock.writes, nil); !bytes.Equal(got, want) {
		t.Fatal("the writes do not reproduce the frames in order")
	}
	if cap(w.coal) != coalesceSize {
		t.Errorf("coalescing buffer grew to %d bytes", cap(w.coal))
	}
	small := 0
	for _, fr := range batch {
		if len(fr.payload) <= coalesceMax {
			small += 4 + len(fr.payload)
		}
	}
	if least := (small + coalesceSize - 1) / coalesceSize; len(sock.writes) < least || len(sock.writes) > least+1 {
		t.Errorf("%d writes for %d bytes of small frames, want %d or %d", len(sock.writes), small, least, least+1)
	}

	// A drain of small frames only is one write of one iovec.
	sock.writes, sock.iovecs = nil, nil
	if err := w.write(batch[:1]); err != nil {
		t.Fatal(err)
	}
	if err := w.write([]tcpFrame{batch[0], batch[0], batch[0]}); err != nil {
		t.Fatal(err)
	}
	if len(sock.iovecs) != 2 || sock.iovecs[0] != 1 || sock.iovecs[1] != 1 {
		t.Errorf("small-frame drains took iovecs %v, want [1 1]", sock.iovecs)
	}
}

// TestTCPLinkCoalescedStreamArrivesInOrder: a real link carries a mix of
// small and large frames — the coalesced runs, the frames around the
// coalesceMax threshold and frames larger than the coalescing buffer —
// and the peer decodes every one, in order.
func TestTCPLinkCoalescedStreamArrivesInOrder(t *testing.T) {
	var recv scribbler
	cl, _ := tcpPair(t, &recv)
	pads := []int{0, 400, 480, 600, 70 << 10, 5}
	const n = 600
	ms := make([]wire.Message, 0, n)
	for i := 0; i < n; i++ {
		ms = append(ms, wire.NewPublish(message.New(map[string]message.Value{
			"i":   message.Int(int64(i)),
			"pad": message.String(strings.Repeat("x", pads[i%len(pads)])),
		})))
	}
	for i := 0; i < n; i += 100 {
		if err := cl.SendBatch(ms[i : i+100]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	waitSinkLen(t, &recv, n)
	got, _ := recv.snapshot()
	checkIndexes(t, got)
}
