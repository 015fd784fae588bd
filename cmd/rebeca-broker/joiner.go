package main

import (
	"bufio"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/broker"
	"repro/internal/flow"
	"repro/internal/transport"
	"repro/internal/wire"
)

// member is one line of the -registry membership file.
type member struct {
	id   wire.BrokerID
	addr string
}

// readMembers parses the membership file: one member per line,
//
//	<broker-id> <tcp-address>
//
// '#' starts a comment and blank lines are skipped. Members come back in
// file order, which is their rank: self-assembly keeps the overlay
// acyclic by having each broker dial only members of strictly lower
// rank. Errors name the offending file:line. A file that lists nobody is
// an error too: it is what a reader sees of a file being rewritten in
// place, between the truncation and the write.
func readMembers(path string) ([]member, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []member
	seen := make(map[wire.BrokerID]bool)
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want '<broker-id> <address>', got %q", path, lineNo, line)
		}
		id := wire.BrokerID(fields[0])
		if seen[id] {
			return nil, fmt.Errorf("%s:%d: duplicate member id %s", path, lineNo, id)
		}
		seen[id] = true
		out = append(out, member{id: id, addr: fields[1]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: lists no members", path)
	}
	return out, nil
}

// rankOf returns id's position in members, or -1 when it is not listed.
func rankOf(members []member, id wire.BrokerID) int {
	for i, m := range members {
		if m.id == id {
			return i
		}
	}
	return -1
}

// joiner keeps a broker attached to the overlay through a membership
// file: it dials the closest lower-ranked live member (file order is
// rank), and when that upstream dies it retracts the link and
// re-attaches. The file is re-read on every (re)join, so operator edits
// are honored without a restart.
type joiner struct {
	path      string
	self      wire.BrokerID
	b         *broker.Broker
	ring      flow.Options
	heartbeat time.Duration // rejoin-retry interval
	stop      <-chan struct{}
}

// newJoiner checks that the membership file reads cleanly and lists self.
func newJoiner(path string, self wire.BrokerID, b *broker.Broker, ring flow.Options, heartbeat time.Duration, stop <-chan struct{}) (*joiner, error) {
	members, err := readMembers(path)
	if err != nil {
		return nil, fmt.Errorf("-registry: %w", err)
	}
	if rankOf(members, self) < 0 {
		return nil, fmt.Errorf("-registry: broker %s is not listed in %s", self, path)
	}
	return &joiner{path: path, self: self, b: b, ring: ring, heartbeat: heartbeat, stop: stop}, nil
}

// join dials the closest lower-ranked live member and watches the
// resulting upstream link. Rank 0, or a broker that a cleanly read file
// no longer lists, owns the root of the tree and dials nobody. It retries
// every heartbeat interval while no lower-ranked member answers (they may
// not have started yet) and while the file does not read cleanly (an
// operator may be mid-edit).
func (j *joiner) join() error {
	for {
		members, err := readMembers(j.path)
		if err != nil {
			log.Printf("join: %v, retrying in %v", err, j.heartbeat)
		} else {
			rank := rankOf(members, j.self)
			if rank <= 0 {
				return nil
			}
			for i := rank - 1; i >= 0; i-- {
				m := members[i]
				link, err := transport.DialTCP(m.addr, j.self, j.b, transport.WithSendWindow(j.ring))
				if err != nil {
					log.Printf("join: dial %s (%s): %v", m.id, m.addr, err)
					continue
				}
				peer := link.Peer().Broker
				if err := j.b.AddLink(peer, link); err != nil {
					_ = link.Close()
					return err
				}
				watchPeerLink(j.b, peer, link, j.stop, j.rejoin)
				log.Printf("join: attached to %s at %s (rank %d -> %d)", peer, m.addr, rank, i)
				return nil
			}
			log.Printf("join: no lower-ranked member of %d reachable, retrying in %v", rank, j.heartbeat)
		}
		select {
		case <-j.stop:
			return nil
		case <-time.After(j.heartbeat):
		}
	}
}

// rejoin re-attaches after the upstream link died.
func (j *joiner) rejoin() {
	select {
	case <-j.stop:
		return
	default:
	}
	if err := j.join(); err != nil {
		log.Printf("rejoin: %v", err)
	}
}
