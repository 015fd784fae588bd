package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc(CategoryNotification)
	c.Add(CategoryAdmin, 3)
	c.Inc(CategoryControl)
	c.Add(CategoryDeliver, 2)
	if got := c.Get(CategoryNotification); got != 1 {
		t.Errorf("notifications = %d", got)
	}
	if got := c.Get(CategoryAdmin); got != 3 {
		t.Errorf("admin = %d", got)
	}
	if got := c.Total(); got != 7 {
		t.Errorf("total = %d", got)
	}
	snap := c.Snapshot()
	if snap[CategoryControl] != 1 || snap[CategoryDeliver] != 2 {
		t.Errorf("snapshot = %v", snap)
	}
	if got := c.Get(Category(99)); got != 0 {
		t.Errorf("unknown category = %d", got)
	}
	c.Add(Category(99), 5) // must not panic or count
	if c.Total() != 7 {
		t.Error("unknown category affected total")
	}
	s := c.String()
	for _, want := range []string{"notification=1", "admin=3", "control=1", "deliver=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() %q misses %q", s, want)
		}
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc(CategoryNotification)
			}
		}()
	}
	wg.Wait()
	if got := c.Get(CategoryNotification); got != 8000 {
		t.Errorf("concurrent count = %d, want 8000", got)
	}
}

func TestCategoryString(t *testing.T) {
	names := map[Category]string{
		CategoryNotification: "notification",
		CategoryAdmin:        "admin",
		CategoryControl:      "control",
		CategoryDeliver:      "deliver",
		Category(42):         "unknown",
	}
	for cat, want := range names {
		if got := cat.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", cat, got, want)
		}
	}
}

func TestDistribution(t *testing.T) {
	var d Distribution
	if d.Count() != 0 || d.Sum() != 0 || d.Max() != 0 || d.Mean() != 0 {
		t.Error("zero value not empty")
	}
	for _, v := range []uint64{3, 7, 1, 7, 2} {
		d.Observe(v)
	}
	if d.Count() != 5 {
		t.Errorf("count = %d", d.Count())
	}
	if d.Sum() != 20 {
		t.Errorf("sum = %d", d.Sum())
	}
	if d.Max() != 7 {
		t.Errorf("max = %d", d.Max())
	}
	if d.Mean() != 4 {
		t.Errorf("mean = %v", d.Mean())
	}
}

func TestDistributionConcurrent(t *testing.T) {
	var d Distribution
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); i <= 100; i++ {
				d.Observe(i)
			}
		}()
	}
	wg.Wait()
	if d.Count() != 800 {
		t.Errorf("count = %d", d.Count())
	}
	if d.Max() != 100 {
		t.Errorf("max = %d", d.Max())
	}
}
