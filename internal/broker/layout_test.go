//go:build amd64 || arm64

package broker

import (
	"testing"
	"unsafe"
)

// TestClientSubSize pins the 64-bit size of a local client subscription's
// state, held once per subscription at its border broker. Only a
// location-dependent subscription keeps a second, instantiated filter, and
// it keeps it beside the subscription (clientState.locExact), not in every
// clientSub.
func TestClientSubSize(t *testing.T) {
	if got := unsafe.Sizeof(clientSub{}); got > 240 {
		t.Errorf("clientSub is %d bytes, want at most 240", got)
	}
}
