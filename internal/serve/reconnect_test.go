package serve

import (
	"math"
	"testing"
)

// After a supervision drop the link is held down for ReconnectSeconds.
// The holdoff boundary is inclusive on the re-up side: a window arriving
// exactly when the holdoff expires may attempt offload again, while one
// an epsilon earlier may not. Windows land on exact period multiples in
// lockstep, so a holdoff expiring precisely on a window boundary is the
// common case, not a corner — this pins which side of it the engine is on.
func TestReconnectHoldoffWindowBoundary(t *testing.T) {
	cfg, _ := lockstepConfig(t)
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, err := e.NewSession("u0")
	if err != nil {
		t.Fatal(err)
	}

	boundary := 3 * cfg.System.PeriodSeconds
	c := s.m.Carry()
	c.LinkDownUntil = boundary
	if err := s.m.Resume(c); err != nil {
		t.Fatal(err)
	}
	if s.m.Up(math.Nextafter(boundary, 0)) {
		t.Fatal("link reported up one ulp before the reconnect holdoff expired")
	}
	if !s.m.Up(boundary) {
		t.Fatal("holdoff expiring exactly on the window boundary must re-admit offload")
	}
	if !s.m.Up(boundary + cfg.System.PeriodSeconds) {
		t.Fatal("link must stay up after the holdoff")
	}
}
