package sim

import (
	"strings"
	"testing"
)

// TestRoamingScaleRun drives the relocation storm at a CI-friendly scale
// and checks the protocol claims exactly: with the relocation timeout
// disabled every relocation completes through a replay, so delivery is
// exactly-once — zero loss, zero duplicates — no matter how the storm
// interleaves with the publish load, and nothing falls out of the bounded
// relocation buffers.
func TestRoamingScaleRun(t *testing.T) {
	cfg := RoamingScaleConfig{
		Brokers:          4,
		Roamers:          6,
		Moves:            5,
		PublishesPerMove: 4,
		TableEntries:     1500,
	}
	res, err := RunRoamingScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := cfg.Roamers * cfg.Moves * cfg.PublishesPerMove
	if res.Lost != 0 || res.Duplicates != 0 {
		t.Errorf("storm lost %d and duplicated %d deliveries, want 0/0", res.Lost, res.Duplicates)
	}
	if res.Delivered != total {
		t.Errorf("delivered %d, want %d", res.Delivered, total)
	}
	if res.Relocations != cfg.Roamers*cfg.Moves {
		t.Errorf("relocations = %d, want %d", res.Relocations, cfg.Roamers*cfg.Moves)
	}
	if res.BufferDrops != 0 {
		t.Errorf("buffer drops = %d, want 0", res.BufferDrops)
	}
	if res.TableEntries < cfg.TableEntries {
		t.Errorf("ballast table holds %d entries, want >= %d", res.TableEntries, cfg.TableEntries)
	}
	out := res.Render()
	for _, want := range []string{"roaming-scale", "ballast", "reloc/s", "duplicates", "replay"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
}

// TestRoamingScaleValidate covers the config guard rails.
func TestRoamingScaleValidate(t *testing.T) {
	ok := DefaultRoamingScaleConfig()
	if err := ok.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := map[string]func(*RoamingScaleConfig){
		"too few brokers":  func(c *RoamingScaleConfig) { c.Brokers = 2 },
		"no roamers":       func(c *RoamingScaleConfig) { c.Roamers = 0 },
		"no moves":         func(c *RoamingScaleConfig) { c.Moves = 0 },
		"no publishes":     func(c *RoamingScaleConfig) { c.PublishesPerMove = 0 },
		"negative ballast": func(c *RoamingScaleConfig) { c.TableEntries = -1 },
	}
	for name, mutate := range cases {
		cfg := DefaultRoamingScaleConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
	}
}
