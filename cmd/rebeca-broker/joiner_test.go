package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/flow"
	"repro/internal/transport"
	"repro/internal/wire"
)

// testNode is one in-process broker with a TCP listener, mirroring the
// daemon's accept loop closely enough to exercise the joiner against real
// connections.
type testNode struct {
	id wire.BrokerID
	b  *broker.Broker
	ln net.Listener

	mu    sync.Mutex
	links []*transport.TCPLink
}

func startNode(t *testing.T, id wire.BrokerID) *testNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &testNode{id: id, b: broker.New(id, broker.Options{}), ln: ln}
	n.b.Start()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			link, err := transport.AcceptTCP(conn, id, n.b)
			if err != nil {
				continue
			}
			peer := link.Peer().Broker
			if err := n.b.AddLink(peer, link); err != nil {
				_ = link.Close()
				continue
			}
			n.mu.Lock()
			n.links = append(n.links, link)
			n.mu.Unlock()
		}
	}()
	t.Cleanup(func() { n.kill() })
	return n
}

// kill crash-stops the node: listener and every accepted connection die.
func (n *testNode) kill() {
	_ = n.ln.Close()
	n.mu.Lock()
	links := n.links
	n.links = nil
	n.mu.Unlock()
	for _, l := range links {
		_ = l.Close()
	}
	n.b.Close()
}

func (n *testNode) addr() string { return n.ln.Addr().String() }

// hasNeighbor polls until the broker's neighbor set contains want.
func hasNeighbor(t *testing.T, b *broker.Broker, want wire.BrokerID) bool {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if hasNeighborNow(b, want) {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// hasNeighborNow reports whether want is in the broker's neighbor set.
func hasNeighborNow(b *broker.Broker, want wire.BrokerID) bool {
	for _, id := range b.Neighbors() {
		if id == want {
			return true
		}
	}
	return false
}

// TestJoinerAttachesAndRejoins builds a three-member registry overlay:
// b3 (rank 2) must first attach to b2 (the closest lower rank), and when
// b2 crashes it must retract the dead link and re-attach to b1.
func TestJoinerAttachesAndRejoins(t *testing.T) {
	b1 := startNode(t, "b1")
	b2 := startNode(t, "b2")
	b3 := startNode(t, "b3")

	regPath := filepath.Join(t.TempDir(), "members.txt")
	reg := fmt.Sprintf("b1 %s\nb2 %s\nb3 %s\n", b1.addr(), b2.addr(), b3.addr())
	if err := os.WriteFile(regPath, []byte(reg), 0o644); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	defer close(stop)
	ring := flow.Options{Capacity: transport.DefaultSendWindow, Policy: flow.Block}

	// b2 joins under b1.
	j2, err := newJoiner(regPath, "b2", b2.b, ring, 30*time.Millisecond, stop)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.join(); err != nil {
		t.Fatal(err)
	}
	if !hasNeighbor(t, b2.b, "b1") {
		t.Fatal("b2 did not attach to b1")
	}

	// b3 joins under b2 (closest lower rank).
	j3, err := newJoiner(regPath, "b3", b3.b, ring, 30*time.Millisecond, stop)
	if err != nil {
		t.Fatal(err)
	}
	if err := j3.join(); err != nil {
		t.Fatal(err)
	}
	if !hasNeighbor(t, b3.b, "b2") {
		t.Fatal("b3 did not attach to b2")
	}

	// Crash b2: b3's upstream link dies, the joiner retracts it and
	// re-attaches to the next lower-ranked live member, b1.
	b2.kill()
	if !hasNeighbor(t, b3.b, "b1") {
		t.Fatal("b3 did not re-attach to b1 after b2 crashed")
	}
}

// TestJoinerRetriesUnreadableFile: a member file that does not read
// cleanly when the upstream dies (an operator saving a half-written
// file) must not be taken for "I am the root". The joiner keeps
// retrying, and once the file is restored b3 re-attaches to b1.
func TestJoinerRetriesUnreadableFile(t *testing.T) {
	b1 := startNode(t, "b1")
	b2 := startNode(t, "b2")
	b3 := startNode(t, "b3")

	regPath := filepath.Join(t.TempDir(), "members.txt")
	reg := fmt.Sprintf("b1 %s\nb2 %s\nb3 %s\n", b1.addr(), b2.addr(), b3.addr())
	if err := os.WriteFile(regPath, []byte(reg), 0o644); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	defer close(stop)
	ring := flow.Options{Capacity: transport.DefaultSendWindow, Policy: flow.Block}
	const retry = 20 * time.Millisecond

	// b3 joins under b2 while the file is whole.
	j3, err := newJoiner(regPath, "b3", b3.b, ring, retry, stop)
	if err != nil {
		t.Fatal(err)
	}
	if err := j3.join(); err != nil {
		t.Fatal(err)
	}
	if !hasNeighbor(t, b3.b, "b2") {
		t.Fatal("b3 did not attach to b2")
	}

	// Break the file mid-line, then kill b3's upstream.
	half := fmt.Sprintf("b1 %s\nb2", b1.addr())
	if err := os.WriteFile(regPath, []byte(half), 0o644); err != nil {
		t.Fatal(err)
	}
	b2.kill()
	deadline := time.Now().Add(5 * time.Second)
	for hasNeighborNow(b3.b, "b2") {
		if time.Now().After(deadline) {
			t.Fatal("b3 never retracted its dead upstream link")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Let several rejoin attempts see the broken file; none may attach.
	time.Sleep(5 * retry)
	if hasNeighborNow(b3.b, "b1") {
		t.Fatal("b3 attached while the member file was unreadable")
	}

	// Restore it the way an operator should: write aside, then rename.
	fixed := regPath + ".new"
	if err := os.WriteFile(fixed, []byte(reg), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(fixed, regPath); err != nil {
		t.Fatal(err)
	}
	if !hasNeighbor(t, b3.b, "b1") {
		t.Fatal("b3 did not re-attach to b1 once the member file was restored")
	}
}

func writeMemberFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "members")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadMembersParseAndRank(t *testing.T) {
	path := writeMemberFile(t, `
# overlay bootstrap order: root first
b1 host1:7001
b2 host2:7002   # transit
b3 host3:7003
`)
	ms, err := readMembers(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("want 3 members, got %v", ms)
	}
	// File order is rank order, not ID order.
	for i, want := range []member{
		{id: "b1", addr: "host1:7001"},
		{id: "b2", addr: "host2:7002"},
		{id: "b3", addr: "host3:7003"},
	} {
		if ms[i] != want {
			t.Fatalf("member %d: want %+v, got %+v", i, want, ms[i])
		}
	}
}

func TestReadMembersParseErrors(t *testing.T) {
	for name, tc := range map[string]struct{ content, at string }{
		"missing addr": {"b1\n", ":1:"},
		"extra field":  {"b1 host:1 extra\n", ":1:"},
		"duplicate id": {"b1 host:1\nb1 host:2\n", ":2:"},
		"no members":   {"# emptied\n", ":"},
	} {
		path := writeMemberFile(t, tc.content)
		_, err := readMembers(path)
		if err == nil {
			t.Errorf("%s: want parse error, got nil", name)
			continue
		}
		if !strings.Contains(err.Error(), path+tc.at) {
			t.Errorf("%s: error %q does not name %s%s", name, err, path, tc.at)
		}
	}
	if _, err := readMembers(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("absent file: want error, got nil")
	}
}

// TestJoinerRejectsUnlistedBroker: a broker not present in the membership
// file must not come up in registry mode.
func TestJoinerRejectsUnlistedBroker(t *testing.T) {
	regPath := filepath.Join(t.TempDir(), "members.txt")
	if err := os.WriteFile(regPath, []byte("b1 127.0.0.1:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b := broker.New("ghost", broker.Options{})
	b.Start()
	defer b.Close()
	stop := make(chan struct{})
	defer close(stop)
	_, err := newJoiner(regPath, "ghost", b, flow.Options{}, time.Second, stop)
	if err == nil {
		t.Fatal("unlisted broker must be rejected")
	}
}

// TestRunRejectsPeerAndRegistry: the two join modes are mutually
// exclusive.
func TestRunRejectsPeerAndRegistry(t *testing.T) {
	err := run([]string{"-id", "b1", "-listen", ":0",
		"-peer", "127.0.0.1:1", "-registry", "/nonexistent"})
	if err == nil {
		t.Fatal("-peer with -registry should fail")
	}
}

// TestRunRejectsBadHeartbeat: a non-positive heartbeat is refused.
func TestRunRejectsBadHeartbeat(t *testing.T) {
	err := run([]string{"-id", "b1", "-listen", ":0", "-heartbeat", "-1s"})
	if err == nil {
		t.Fatal("negative heartbeat should fail")
	}
}
