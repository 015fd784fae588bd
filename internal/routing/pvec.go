package routing

// Paged storage for the match index.
//
// The row vector and the value tables grow to 10⁶ elements. A flat slice
// would copy all of them on every doubling and hold a transient 1.5× peak;
// pvec keeps its elements in fixed-size pages instead, so growth appends
// one page and never moves an element. Whether the pages still pay for
// themselves against a flat slice is an open measurement.
const (
	pageShift = 9
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// pvec is a paged vector of T. Page sizes matter for the allocator: a
// [512]row page is exactly 40960 bytes, a large allocation rounded to
// 8 KiB pages, so one more word per row (or a header in the page) would
// waste 8 KiB per page, ~20% of the row storage at 10⁶ entries.
type pvec[T any] struct {
	pages []*[pageSize]T
	n     int
}

func (v *pvec[T]) len() int { return v.n }

// at returns a pointer to element i, for reading or writing.
func (v *pvec[T]) at(i int32) *T {
	return &v.pages[i>>pageShift][i&pageMask]
}

// grow appends a zero element and returns its index.
func (v *pvec[T]) grow() int32 {
	i := int32(v.n)
	if int(i>>pageShift) == len(v.pages) {
		v.pages = append(v.pages, new([pageSize]T))
	}
	v.n++
	return i
}
