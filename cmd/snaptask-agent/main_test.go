package main

import (
	"testing"

	"snaptask/internal/venue"
)

func TestBuildVenue(t *testing.T) {
	for _, name := range []string{"library", "small", "office"} {
		if _, err := venue.ByName(name, 1); err != nil {
			t.Errorf("venue %q: %v", name, err)
		}
	}
	if _, err := venue.ByName("nope", 1); err == nil {
		t.Error("unknown venue accepted")
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{"-venue", "nope"}); err == nil {
		t.Error("bogus venue accepted")
	}
	if err := run([]string{"-broken"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-workers", "0"}); err == nil {
		t.Error("zero workers accepted")
	}
	// Unreachable server: the agent must fail cleanly, not hang.
	if err := run([]string{"-venue", "small", "-server", "http://127.0.0.1:1", "-tasks", "1"}); err == nil {
		t.Error("unreachable server accepted")
	}
}
