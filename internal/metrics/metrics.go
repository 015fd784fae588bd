// Package metrics provides lightweight counters for the experiment
// harness and the broker: messages by category (the quantity Figure 9
// plots) and count/sum/max distributions.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Category classifies a counted message.
type Category uint8

// Message categories. Notifications are payload; everything else is the
// administrative traffic the paper's Figure 9 accounts for separately.
const (
	CategoryNotification Category = iota + 1
	CategoryAdmin
	CategoryControl // relocation control traffic (fetch/replay)
	CategoryDeliver // border-broker-to-client deliveries
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case CategoryNotification:
		return "notification"
	case CategoryAdmin:
		return "admin"
	case CategoryControl:
		return "control"
	case CategoryDeliver:
		return "deliver"
	default:
		return "unknown"
	}
}

// Counter is a set of atomic per-category counters. The zero value is
// ready to use.
type Counter struct {
	notifications atomic.Uint64
	admin         atomic.Uint64
	control       atomic.Uint64
	deliver       atomic.Uint64
}

// Inc increments the category by one.
func (c *Counter) Inc(cat Category) { c.Add(cat, 1) }

// Add increments the category by n.
func (c *Counter) Add(cat Category, n uint64) {
	switch cat {
	case CategoryNotification:
		c.notifications.Add(n)
	case CategoryAdmin:
		c.admin.Add(n)
	case CategoryControl:
		c.control.Add(n)
	case CategoryDeliver:
		c.deliver.Add(n)
	}
}

// Get returns the current value of the category.
func (c *Counter) Get(cat Category) uint64 {
	switch cat {
	case CategoryNotification:
		return c.notifications.Load()
	case CategoryAdmin:
		return c.admin.Load()
	case CategoryControl:
		return c.control.Load()
	case CategoryDeliver:
		return c.deliver.Load()
	default:
		return 0
	}
}

// Total returns the sum over all categories (the paper's "total number of
// messages (notifications and administrative messages)").
func (c *Counter) Total() uint64 {
	return c.notifications.Load() + c.admin.Load() + c.control.Load() + c.deliver.Load()
}

// Snapshot returns all values at once.
func (c *Counter) Snapshot() map[Category]uint64 {
	return map[Category]uint64{
		CategoryNotification: c.notifications.Load(),
		CategoryAdmin:        c.admin.Load(),
		CategoryControl:      c.control.Load(),
		CategoryDeliver:      c.deliver.Load(),
	}
}

// String renders the counter for diagnostics.
func (c *Counter) String() string {
	snap := c.Snapshot()
	cats := make([]Category, 0, len(snap))
	for cat := range snap {
		cats = append(cats, cat)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	parts := make([]string, 0, len(cats))
	for _, cat := range cats {
		parts = append(parts, fmt.Sprintf("%s=%d", cat, snap[cat]))
	}
	return strings.Join(parts, " ")
}

// Distribution tracks a stream of integer observations with atomic
// counters: count, sum, and max. Brokers use it for batch-depth
// observability (how many tasks each mailbox drain carried).
type Distribution struct {
	count atomic.Uint64
	sum   atomic.Uint64
	max   atomic.Uint64
}

// Observe records one observation.
func (d *Distribution) Observe(v uint64) {
	d.count.Add(1)
	d.sum.Add(v)
	for {
		cur := d.max.Load()
		if v <= cur || d.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (d *Distribution) Count() uint64 { return d.count.Load() }

// Sum returns the sum of all observations.
func (d *Distribution) Sum() uint64 { return d.sum.Load() }

// Max returns the largest observation, or 0 when empty.
func (d *Distribution) Max() uint64 { return d.max.Load() }

// Mean returns the average observation, or 0 when empty.
func (d *Distribution) Mean() float64 {
	n := d.count.Load()
	if n == 0 {
		return 0
	}
	return float64(d.sum.Load()) / float64(n)
}
