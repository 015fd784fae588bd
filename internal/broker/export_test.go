package broker

import (
	"unsafe"

	"repro/internal/message"
	"repro/internal/wire"
)

// heldNotifs returns, from the run goroutine, the notifications a local
// subscription holds: its virtual-counterpart buffer, then its relocation
// pending buffer.
func (b *Broker) heldNotifs(c wire.ClientID, id wire.SubID) []message.Notification {
	var out []message.Notification
	_ = b.exec(func() {
		cs, ok := b.clients[c]
		if !ok {
			return
		}
		st, ok := cs.subs[id]
		if !ok {
			return
		}
		for _, it := range st.buffer {
			out = append(out, it.Notif)
		}
		if st.pending != nil {
			out = append(out, st.pending.notifs...)
		}
	})
	return out
}

// attrStorage returns the address of n's attribute storage. A
// Notification is exactly one attribute slice, so its first word is that
// slice's data pointer; attrStorageSound checks the layout.
func attrStorage(n message.Notification) unsafe.Pointer {
	return *(*unsafe.Pointer)(unsafe.Pointer(&n))
}

// attrStorageSound reports whether attrStorage's layout assumption holds.
func attrStorageSound() bool {
	n := message.NewAttrs(message.Attr{Name: "x", Value: message.Int(1)})
	return unsafe.Sizeof(n) == unsafe.Sizeof([]message.Attr(nil)) && attrStorage(n) != nil
}
