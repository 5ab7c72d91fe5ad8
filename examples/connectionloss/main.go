// Connectionloss: demonstrate CHRIS's behaviour when the BLE link drops —
// the decision engine falls back to local-only configurations and returns
// to the hybrid Pareto front when the phone reappears (paper §III-B1,
// §IV-B).
package main

import (
	"fmt"
	"log"

	chris "repro"
)

func main() {
	log.SetFlags(0)

	pipe, err := chris.BuildPipeline(chris.QuickPipelineConfig())
	if err != nil {
		log.Fatal(err)
	}
	engine, err := chris.NewEngine(pipe.Profiles, pipe.Classifier)
	if err != nil {
		log.Fatal(err)
	}

	// Bound: 130% of the best profiled MAE (robust to pipeline scale).
	best := pipe.Profiles[0].MAE
	for _, p := range pipe.Profiles {
		if p.MAE < best {
			best = p.MAE
		}
	}
	constraint := chris.MAEConstraint(best * 1.3)
	up, err := engine.SelectConfig(true, constraint)
	if err != nil {
		log.Fatal(err)
	}
	down, err := engine.SelectConfig(false, constraint)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("link up:   %s (MAE %.2f, %.1f µJ)\n", up.Name(), up.MAE, up.WatchEnergy.MicroJoules())
	fmt.Printf("link down: %s (MAE %.2f, %.1f µJ)\n\n", down.Name(), down.MAE, down.WatchEnergy.MicroJoules())

	// The local-only Pareto front CHRIS retains without the phone.
	localFront := chris.Pareto(chris.FilterLocal(pipe.Profiles))
	fmt.Printf("local-only Pareto front: %d configurations\n", len(localFront))
	for _, p := range localFront {
		fmt.Printf("  %-34s MAE %6.2f  E %9.1f µJ\n", p.Name(), p.MAE, p.WatchEnergy.MicroJoules())
	}

	// Replay a day with the link cut every 20 minutes (down 5 minutes):
	// the simulator re-selects configurations behind hysteresis — a few
	// degraded windows after the link drops, a few healthy ones after it
	// returns.
	var toggles []float64
	for t := 1200.0; t < 6*3600; t += 1500 {
		toggles = append(toggles, t, t+300)
	}
	trace, err := chris.NewConnectivityTrace(true, toggles...)
	if err != nil {
		log.Fatal(err)
	}
	res, err := chris.Simulate(chris.ScenarioConfig{
		System:          pipe.Sys,
		Engine:          engine,
		Constraint:      constraint,
		Trace:           trace,
		Windows:         pipe.TestWindows,
		DurationSeconds: 6 * 3600,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n6-hour replay with dropouts: %d predictions, %d re-selections, %d link-down windows\n",
		res.Predictions, res.Reselections, res.LinkDownWindows)
	fmt.Printf("field MAE %.2f BPM; watch energy %v (radio %v)\n",
		res.MAE, res.Watch.Total(), res.Watch.Radio)

	// The same replay under the deterministic chaos harness: the commute
	// scenario injects bursty packet loss, a tunnel flap, phone latency
	// spikes and a phone-unavailable stretch. Offloads now run through the
	// retry/timeout/backoff protocol and degrade gracefully to the
	// watch-side model; the fixed seed makes the run replayable bit for
	// bit.
	inj, err := chris.NewFaultInjector(chris.CommuteScenario(), 42)
	if err != nil {
		log.Fatal(err)
	}
	fres, err := chris.Simulate(chris.ScenarioConfig{
		System:          pipe.Sys,
		Engine:          engine,
		Constraint:      constraint,
		Windows:         pipe.TestWindows,
		DurationSeconds: 6 * 3600,
		Faults:          inj,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n6-hour commute chaos replay (seed %d):\n", fres.FaultSeed)
	fmt.Printf("  retries %d, timeouts %d, supervision drops %d\n",
		fres.Retries, fres.Timeouts, fres.SupervisionDrops)
	fmt.Printf("  fallback windows %d of %d predictions; %d packets retransmitted (%v radio overhead)\n",
		fres.FallbackWindows, fres.Predictions, fres.RetransmitPackets, fres.RetransmitEnergy)
	fmt.Printf("  MAE %.2f BPM overall, %.2f BPM over the %d fault-touched windows\n",
		fres.MAE, fres.FaultMAE, fres.FaultWindows)
}
