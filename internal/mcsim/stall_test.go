package mcsim

import (
	"testing"

	"mcnet/internal/system"
	"mcnet/internal/units"
)

// TestStalledRun pins a routing deadlock: on Org1 with a dragonfly ICN2 and
// no virtual channels, this run's event list empties with 570 of 2,000
// measured messages delivered and every worm still in the network queued
// behind a channel another one holds. The same organization at a light
// load delivers everything and is not stalled.
func TestStalledRun(t *testing.T) {
	org := system.Table1Org1()
	if err := system.ApplyTopologyAxis(&org, "fattree+dragonfly"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lambda    float64
		seed      uint64
		stalled   bool
		delivered int
	}{
		{0.00035623125, 4343180570121319839, true, 570},
		{1e-4, 1, false, 2000},
	} {
		sim, err := New(Config{
			Org: org, Par: units.Default(), LambdaG: tc.lambda,
			Warmup: 200, Measure: 2000, Drain: 200, Seed: tc.seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stalled != tc.stalled || res.Truncated || res.DeliveredMeasured != tc.delivered {
			t.Errorf("λ=%g: stalled %v, truncated %v, %d delivered; want stalled %v, %d delivered",
				tc.lambda, res.Stalled, res.Truncated, res.DeliveredMeasured, tc.stalled, tc.delivered)
		}
		net := sim.Network()
		queued := 0
		for c := 0; c < net.Channels(); c++ {
			queued += net.QueueLen(int32(c))
		}
		if tc.stalled && (net.InFlight() == 0 || queued != net.InFlight()) {
			t.Errorf("λ=%g: %d worms in flight, %d queued: a stall leaves every worm in a channel queue",
				tc.lambda, net.InFlight(), queued)
		}
		sim.Release()
	}
}
