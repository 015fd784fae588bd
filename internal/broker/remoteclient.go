package broker

import (
	"repro/internal/transport"
	"repro/internal/wire"
)

// Remote clients: a client connected over a transport link (TCP) rather
// than in-process. The broker attaches it like a local client, with
// deliveries serialized back over the link; wire messages arriving from a
// client hop are routed into the same local-subscription code paths the
// in-process API uses, so remote and local clients are indistinguishable
// to the protocol.

// AttachRemoteClient attaches a client whose deliveries travel over the
// given link. The caller owns the link's lifecycle and should call
// DetachClient when the link dies. Deliveries are written on the broker
// goroutine, inline like every neighbor link, so they reach the client in
// handling order: a frame-encoding link (transport.DeliverySender) takes
// each one through SendDeliver, splicing in the publish's bytes when it
// arrived with them, any other link a wire.NewDeliver message.
func (b *Broker) AttachRemoteClient(id wire.ClientID, link transport.Link) error {
	if ds, ok := link.(transport.DeliverySender); ok {
		return b.attach(id, nil, ds)
	}
	hop := wire.ClientHop(id)
	return b.attach(id, func(d wire.Deliver) {
		// A failed Send means the link just died; see handOver.
		if err := link.Send(wire.NewDeliver(d)); err != nil {
			b.sendErrs.record(b.id, hop, err)
		}
	}, nil)
}

// clientInbound handles wire messages arriving from an attached client's
// link, mapping them onto the same handlers the in-process API uses. Runs
// on the broker goroutine.
func (b *Broker) clientInbound(from wire.Hop, msg *wire.Message) {
	client := from.Client
	switch msg.Type {
	case wire.TypePublish:
		if msg.Notif != nil {
			b.handlePublish(from, msg.Notif, msg)
		}
	case wire.TypeSubscribe:
		if msg.Sub != nil {
			sub := *msg.Sub
			sub.Client = client // the link identity is authoritative
			// Errors (unknown client, duplicates) have no backchannel in
			// the v1 wire protocol; they are dropped like any malformed
			// message. The client observes the absence of deliveries.
			_ = b.localSubscribe(sub)
		}
	case wire.TypeUnsubscribe:
		if msg.Sub != nil {
			_ = b.localUnsubscribe(client, msg.Sub.ID)
		}
	case wire.TypeAdvertise:
		if msg.Sub != nil {
			if cs, ok := b.clients[client]; ok {
				cs.advs[msg.Sub.ID] = msg.Sub.Filter
			}
			adv := *msg.Sub
			adv.Client = client
			b.handleAdvertise(from, adv)
		}
	case wire.TypeUnadvertise:
		if msg.Sub != nil {
			if cs, ok := b.clients[client]; ok {
				delete(cs.advs, msg.Sub.ID)
			}
			adv := *msg.Sub
			adv.Client = client
			b.handleUnadvertise(from, adv)
		}
	}
}
