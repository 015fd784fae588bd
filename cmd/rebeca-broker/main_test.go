package main

import (
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/routing"
)

func TestRunRequiresID(t *testing.T) {
	if err := run([]string{"-listen", ":0"}); err == nil {
		t.Error("missing -id should fail")
	}
}

func TestRunRejectsBadStrategy(t *testing.T) {
	err := run([]string{"-id", "b1", "-strategy", "bogus", "-listen", ":0"})
	if err == nil {
		t.Fatal("bad strategy should fail")
	}
	// The error names the valid strategies, so -strategy typos are
	// self-documenting.
	for _, name := range routing.StrategyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q should list %q", err, name)
		}
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-id", "b1", "-zzz"}); err == nil {
		t.Error("bad flag should fail")
	}
}

func TestRunRejectsUnreachablePeer(t *testing.T) {
	// 127.0.0.1:1 is essentially guaranteed closed.
	err := run([]string{"-id", "b1", "-listen", "127.0.0.1:0", "-peer", "127.0.0.1:1"})
	if err == nil {
		t.Error("unreachable peer should fail")
	}
}

func TestRunRejectsBadFlowFlags(t *testing.T) {
	cases := [][]string{
		{"-id", "b1", "-listen", ":0", "-mailbox-cap", "-2"},
		{"-id", "b1", "-listen", ":0", "-send-window", "0"},
		{"-id", "b1", "-listen", ":0", "-send-policy", "bogus"},
		// A non-positive stats interval would panic the ticker after the
		// port is bound.
		{"-id", "b1", "-listen", ":0", "-stats", "0"},
		{"-id", "b1", "-listen", ":0", "-stats", "-1s"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestRunRejectsBadPolicyListingNames(t *testing.T) {
	err := run([]string{"-id", "b1", "-listen", ":0", "-send-policy", "bogus"})
	if err == nil {
		t.Fatal("bad send policy should fail")
	}
	// The error names the valid policies, so typos are self-documenting.
	for _, name := range flow.PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q should list %q", err, name)
		}
	}
}
