package message

import (
	"sort"
	"strings"
)

// Notification is an immutable event notification: a set of attribute
// name/value pairs describing an occurred event. Notifications are injected
// into the event system by producers and conveyed to consumers whose
// subscription filters match.
//
// The representation is a canonical attribute slice sorted by name with
// unique names and valid values. Canonicality is what the zero-copy
// forwarding path relies on: because every Notification is sorted by
// construction, its binary encoding is a deterministic function of its
// content, so a broker that decodes a canonical frame can forward the
// inbound bytes verbatim instead of re-encoding (see package wire).
type Notification struct {
	attrs []Attr // sorted by Name, names unique, values valid
}

// An Attr is a single name/value pair, used by the NewAttrs constructor and
// the indexed At accessor.
type Attr struct {
	Name  string
	Value Value
}

// New builds a notification from the given attributes. The map is not
// retained, so the caller may reuse it. Invalid values are dropped.
func New(attrs map[string]Value) Notification {
	out := make([]Attr, 0, len(attrs))
	for k, v := range attrs {
		if v.IsValid() {
			out = append(out, Attr{Name: k, Value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return Notification{attrs: out}
}

// NewAttrs builds a notification from a list of attributes. Later
// duplicates win.
func NewAttrs(attrs ...Attr) Notification {
	out := make([]Attr, 0, len(attrs))
	for _, a := range attrs {
		if a.Value.IsValid() {
			out = append(out, a)
		}
	}
	return Notification{attrs: normalizeAttrs(out)}
}

// normalizeAttrs sorts attrs by name and collapses duplicate names keeping
// the last occurrence (map-insertion semantics: later wins). It mutates and
// returns its argument.
func normalizeAttrs(attrs []Attr) []Attr {
	sort.SliceStable(attrs, func(i, j int) bool { return attrs[i].Name < attrs[j].Name })
	j := 0
	for i := 0; i < len(attrs); i++ {
		if j > 0 && attrs[j-1].Name == attrs[i].Name {
			attrs[j-1] = attrs[i]
			continue
		}
		attrs[j] = attrs[i]
		j++
	}
	return attrs[:j]
}

// find binary-searches for name, returning its index, or the insertion
// point and false.
func (n Notification) find(name string) (int, bool) {
	lo, hi := 0, len(n.attrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.attrs[mid].Name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.attrs) && n.attrs[lo].Name == name
}

// Get returns the value of the named attribute and whether it is present.
func (n Notification) Get(name string) (Value, bool) {
	if i, ok := n.find(name); ok {
		return n.attrs[i].Value, true
	}
	return Value{}, false
}

// Has reports whether the named attribute is present.
func (n Notification) Has(name string) bool {
	_, ok := n.find(name)
	return ok
}

// Len returns the number of attributes.
func (n Notification) Len() int { return len(n.attrs) }

// At returns the i'th attribute in sorted name order, 0 <= i < Len().
// Together with Len it gives indexed, allocation-free access to the
// canonical attribute sequence — the routing match index merges it against
// its own sorted attribute list.
func (n Notification) At(i int) Attr { return n.attrs[i] }

// Each calls fn for every attribute until fn returns false. Attributes are
// visited in sorted name order. It is the allocation-free alternative to
// Names+Get for callers that visit attributes on a hot path.
func (n Notification) Each(fn func(name string, v Value) bool) {
	for _, a := range n.attrs {
		if !fn(a.Name, a.Value) {
			return
		}
	}
}

// Names returns the attribute names in sorted order.
func (n Notification) Names() []string {
	names := make([]string, len(n.attrs))
	for i, a := range n.attrs {
		names[i] = a.Name
	}
	return names
}

// With returns a copy of the notification with one attribute added or
// replaced, built with a single copy of the attribute slice. The receiver
// is not modified; an invalid value leaves the content unchanged.
func (n Notification) With(name string, v Value) Notification {
	if !v.IsValid() {
		return n // notifications are immutable, sharing the slice is safe
	}
	i, ok := n.find(name)
	if ok {
		cp := make([]Attr, len(n.attrs))
		copy(cp, n.attrs)
		cp[i].Value = v
		return Notification{attrs: cp}
	}
	cp := make([]Attr, len(n.attrs)+1)
	copy(cp, n.attrs[:i])
	cp[i] = Attr{Name: name, Value: v}
	copy(cp[i+1:], n.attrs[i:])
	return Notification{attrs: cp}
}

// Clone returns a copy of the notification with an attribute slice of its
// own. Notifications are immutable, so sharing is always safe; Clone is
// for keeping one without keeping the storage it was decoded into (see
// Chunks).
func (n Notification) Clone() Notification {
	if n.attrs == nil {
		return n
	}
	return Notification{attrs: append([]Attr(nil), n.attrs...)}
}

// Equal reports whether two notifications carry exactly the same
// attributes. Both sides are canonical, so one ordered walk suffices.
func (n Notification) Equal(m Notification) bool {
	if len(n.attrs) != len(m.attrs) {
		return false
	}
	for i := range n.attrs {
		if n.attrs[i].Name != m.attrs[i].Name || !n.attrs[i].Value.Equal(m.attrs[i].Value) {
			return false
		}
	}
	return true
}

// String renders the notification as "(a = 1), (b = "x")" in sorted
// attribute order, mirroring the paper's notation.
func (n Notification) String() string {
	var b strings.Builder
	for i, a := range n.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		b.WriteString(a.Name)
		b.WriteString(" = ")
		b.WriteString(a.Value.String())
		b.WriteByte(')')
	}
	return b.String()
}
