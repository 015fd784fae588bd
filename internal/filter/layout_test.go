//go:build amd64 || arm64

package filter

import (
	"testing"
	"unsafe"

	"repro/internal/message"
)

// TestLayoutSizes pins the 64-bit sizes of the value and filter data
// model: one payload word in a Value, a range's low bound in Value, and
// signature cells that name their constraint by index. Each subscription
// is held in this form by every broker on its path, so a field added here
// is paid per subscription per broker.
func TestLayoutSizes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"message.Value", unsafe.Sizeof(message.Value{}), 32},
		{"message.Attr", unsafe.Sizeof(message.Attr{}), 48},
		{"filter.Constraint", unsafe.Sizeof(Constraint{}), 112},
	} {
		if tc.got != tc.want {
			t.Errorf("%s is %d bytes, want %d", tc.name, tc.got, tc.want)
		}
	}
	if got := unsafe.Sizeof(sigCell{}); got > 24 {
		t.Errorf("sigCell is %d bytes, want at most 24", got)
	}
}
