// Command rebeca-broker runs a single broker over TCP, forming a
// distributed overlay with peers. Brokers listen for peer connections and
// either dial peers given explicitly with -peer (the overlay must be
// built as a tree: dial each new broker to exactly one existing broker)
// or join through a shared membership file with -registry, which also
// re-attaches them when their upstream peer dies.
//
// Usage:
//
//	rebeca-broker -id b1 -listen :7001
//	rebeca-broker -id b2 -listen :7002 -peer localhost:7001
//	rebeca-broker -id b3 -listen :7003 -registry members.txt
//
// See OPERATIONS.md for the full flag reference and tuning guide. The
// daemon prints routing-table sizes every -stats interval until
// interrupted.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/broker"
	"repro/internal/flow"
	"repro/internal/routing"
	"repro/internal/transport"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rebeca-broker:", err)
		os.Exit(1)
	}
}

// brokerFlags holds every command-line option. The struct exists so the
// flag set can be constructed without running the daemon — the
// OPERATIONS.md drift guard walks it with VisitAll.
type brokerFlags struct {
	id             string
	listen         string
	peers          string
	registryPath   string
	heartbeat      time.Duration
	strategyName   string
	statsEvery     time.Duration
	mailboxCap     int
	sendWindow     int
	sendPolicy     string
	relocBufferCap int
}

// newFlagSet declares the rebeca-broker flags on a fresh FlagSet.
func newFlagSet() (*flag.FlagSet, *brokerFlags) {
	cfg := &brokerFlags{}
	fs := flag.NewFlagSet("rebeca-broker", flag.ContinueOnError)
	fs.StringVar(&cfg.id, "id", "", "broker id (required)")
	fs.StringVar(&cfg.listen, "listen", ":7001", "TCP listen address")
	fs.StringVar(&cfg.peers, "peer", "", "comma-separated peer addresses to dial")
	fs.StringVar(&cfg.registryPath, "registry", "",
		"membership file (one '<id> <addr>' per line); join the overlay through it instead of -peer")
	fs.DurationVar(&cfg.heartbeat, "heartbeat", 2*time.Second,
		"rejoin-retry interval (with -registry)")
	fs.StringVar(&cfg.strategyName, "strategy", "covering",
		"routing strategy: "+strings.Join(routing.StrategyNames(), ", ")+" (case-insensitive)")
	fs.DurationVar(&cfg.statsEvery, "stats", 30*time.Second, "stats print interval")
	fs.IntVar(&cfg.mailboxCap, "mailbox-cap", 0,
		"mailbox capacity in tasks, shedding the newest notification when full (0 = unbounded)")
	fs.IntVar(&cfg.sendWindow, "send-window", transport.DefaultSendWindow,
		"per-peer TCP send window in frames")
	fs.StringVar(&cfg.sendPolicy, "send-policy", flow.Block.String(),
		"send-window overload policy: "+strings.Join(flow.PolicyNames(), ", "))
	fs.IntVar(&cfg.relocBufferCap, "reloc-buffer-cap", 0,
		"per-subscription relocation buffer bound in notifications, drop-oldest (0 = MaxBufferPerSub)")
	return fs, cfg
}

func run(args []string) error {
	fs, cfg := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.id == "" {
		return errors.New("-id is required")
	}
	if cfg.peers != "" && cfg.registryPath != "" {
		return errors.New("-peer and -registry are mutually exclusive")
	}
	strategy, err := routing.ParseStrategy(cfg.strategyName)
	if err != nil {
		return err
	}
	if cfg.mailboxCap < 0 {
		return fmt.Errorf("-mailbox-cap must be >= 0, got %d", cfg.mailboxCap)
	}
	if cfg.sendWindow < 1 {
		return fmt.Errorf("-send-window must be >= 1, got %d", cfg.sendWindow)
	}
	if cfg.heartbeat <= 0 {
		return fmt.Errorf("-heartbeat must be positive, got %v", cfg.heartbeat)
	}
	if cfg.statsEvery <= 0 {
		return fmt.Errorf("-stats must be positive, got %v", cfg.statsEvery)
	}
	ringPolicy, err := flow.ParsePolicy(cfg.sendPolicy)
	if err != nil {
		return fmt.Errorf("-send-policy: %w", err)
	}
	ring := flow.Options{Capacity: cfg.sendWindow, Policy: ringPolicy}
	if cfg.relocBufferCap < 0 {
		return fmt.Errorf("-reloc-buffer-cap must be >= 0, got %d", cfg.relocBufferCap)
	}

	self := wire.BrokerID(cfg.id)
	b := broker.New(self, broker.Options{
		Strategy:        strategy,
		MailboxCapacity: cfg.mailboxCap,
		RelocBufferCap:  cfg.relocBufferCap,
	})
	b.Start()
	defer b.Close()

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return fmt.Errorf("listen %s: %w", cfg.listen, err)
	}
	defer ln.Close()
	box := "unbounded"
	if cfg.mailboxCap > 0 {
		box = fmt.Sprintf("%d tasks, %s", cfg.mailboxCap, flow.ShedNewest)
	}
	log.Printf("broker %s listening on %s (strategy %s, mailbox %s, send window %d frames %s)",
		cfg.id, ln.Addr(), strategy, box, cfg.sendWindow, ringPolicy)

	stop := make(chan struct{})
	defer close(stop)

	// Dial explicitly configured peers (static topology mode).
	for _, addr := range strings.Split(cfg.peers, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		link, err := transport.DialTCP(addr, self, b, transport.WithSendWindow(ring))
		if err != nil {
			return fmt.Errorf("dial peer %s: %w", addr, err)
		}
		peer := link.Peer().Broker
		if err := b.AddLink(peer, link); err != nil {
			return err
		}
		watchPeerLink(b, peer, link, stop, nil)
		log.Printf("broker %s connected to peer %s at %s", cfg.id, peer, addr)
	}

	// Registry mode: join through the membership file and stay joined.
	if cfg.registryPath != "" {
		j, err := newJoiner(cfg.registryPath, self, b, ring, cfg.heartbeat, stop)
		if err != nil {
			return err
		}
		if err := j.join(); err != nil {
			return err
		}
	}

	// Accept incoming peers and clients. Each connection is handshaken
	// and attached on its own goroutine, so one that never speaks holds
	// only itself (until the handshake deadline), not the accept loop.
	attach := func(conn net.Conn) {
		link, err := transport.AcceptTCP(conn, self, b, transport.WithSendWindow(ring))
		if err != nil {
			log.Printf("handshake failed: %v", err)
			return
		}
		if link.Peer().IsClient() {
			client := link.Peer().Client
			if err := b.AttachRemoteClient(client, link); err != nil {
				log.Printf("attach client %s: %v", client, err)
				_ = link.Close()
				return
			}
			log.Printf("broker %s attached client %s", cfg.id, client)
			watchClientLink(b, client, link, stop, nil)
			return
		}
		peer := link.Peer().Broker
		if err := b.AddLink(peer, link); err != nil {
			log.Printf("add link %s: %v", peer, err)
			_ = link.Close()
			return
		}
		watchPeerLink(b, peer, link, stop, nil)
		log.Printf("broker %s accepted peer %s", cfg.id, peer)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go attach(conn)
		}
	}()

	ticker := time.NewTicker(cfg.statsEvery)
	defer ticker.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-ticker.C:
			subs, advs := b.TableSizes()
			log.Printf("broker %s: %d subscription entries, %d advertisement entries", cfg.id, subs, advs)
			st := b.Stats()
			log.Printf("broker %s: control plane: %d tracked, %d forwarded, admin sent %d sub / %d unsub, cover checks %d, merges active %d (covering %d subs), unmerges %d",
				cfg.id, st.Forwarder.TrackedFilters, st.Forwarder.ForwardedFilters,
				st.ControlSubsSent, st.ControlUnsubsSent, st.Forwarder.CoverChecks,
				st.Forwarder.MergesActive, st.Forwarder.MergeCovered, st.Forwarder.Unmerges)
			log.Printf("broker %s: mobility: relocations %d started / %d completed / %d expired, replay %d batches (mean %.1f, max %d items), buffer drops %d",
				cfg.id, st.RelocationsStarted, st.RelocationsCompleted, st.RelocationsExpired,
				st.ReplayBatches, st.ReplayMeanItems, st.ReplayMaxItems, st.BufferDrops)
		case s := <-sig:
			log.Printf("broker %s: received %v, shutting down", cfg.id, s)
			return nil
		}
	}
}

// watchPeerLink retracts a dead peer's routing state when its connection
// drops (Broker.RemoveLink — the same primitive the in-process repair
// path uses), closes the link, and then runs onDown, if any, to re-attach
// elsewhere. Closing what the peer closed releases the socket (no
// CLOSE_WAIT) and the link's writer goroutine; it comes after the removal
// so the broker has stopped sending on the link.
func watchPeerLink(b *broker.Broker, peer wire.BrokerID, link *transport.TCPLink, stop <-chan struct{}, onDown func()) {
	go func() {
		select {
		case <-stop:
			return
		case <-link.Done():
		}
		if err := b.RemoveLink(peer); err != nil {
			log.Printf("remove link %s: %v", peer, err)
		} else {
			log.Printf("peer %s link down, routing state retracted", peer)
		}
		_ = link.Close() // the connection is already gone; nothing to report
		if onDown != nil {
			onDown()
		}
	}()
}

// watchClientLink detaches a client when its connection dies — it becomes
// a roaming client whose virtual counterpart buffers until it reappears
// somewhere — then closes the link as watchPeerLink does and runs onDown,
// if any.
func watchClientLink(b *broker.Broker, client wire.ClientID, link *transport.TCPLink, stop <-chan struct{}, onDown func()) {
	go func() {
		select {
		case <-stop:
			return
		case <-link.Done():
		}
		if err := b.DetachClient(client); err != nil {
			log.Printf("detach client %s: %v", client, err)
		} else {
			log.Printf("broker %s detached client %s (link closed)", b.ID(), client)
		}
		_ = link.Close() // the connection is already gone; nothing to report
		if onDown != nil {
			onDown()
		}
	}()
}
