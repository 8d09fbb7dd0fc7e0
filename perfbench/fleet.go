package main

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/offload"
	"repro/internal/sim"
	"repro/internal/tasks"
)

// fleet-round: a fleet on the 16-RSU corridor runs the kidnapper-search
// (ALPR) service through the sharded round executor at 2 shards. One
// operation is one round; throughput counts vehicle invocations.

const (
	fleetService = "kidnapper-search"
	fleetShards  = 2
	fleetEpoch   = 250 * time.Millisecond
	// probeCalls is how many Engine.Decide / DAG.TopoOrder calls the
	// traced probe times.
	probeCalls = 2000
)

type fleetWorkload struct {
	seed     int64
	vehicles int
	warmup   int
	rounds   int
	// runs holds every pass's round results, warm-up first, for the
	// cross-shard check in finish.
	runs [][]fleet.RoundResult
}

func newFleetWorkload(seed int64, small bool) *fleetWorkload {
	w := &fleetWorkload{seed: seed, vehicles: 1000, warmup: 3, rounds: 30}
	if small {
		w.vehicles, w.warmup, w.rounds = 60, 1, 12
	}
	return w
}

func (w *fleetWorkload) tail() float64 { return 90 }

// newFleet builds the fleet through the public constructor with the
// corridor layout and nothing else configured but the shard count.
func (w *fleetWorkload) newFleet(shards int) (*fleet.Fleet, error) {
	return fleet.New(fleet.Config{
		Vehicles:       w.vehicles,
		RSUs:           16,
		RSURadiusM:     600,
		SpeedJitterMPH: 10,
		RNG:            sim.NewStream(w.seed, 0),
		Shards:         shards,
	})
}

func (w *fleetWorkload) pass(tr *tracer) (*passResult, error) {
	pr := &passResult{layers: map[string]float64{}}
	start := time.Now()
	f, err := w.newFleet(fleetShards)
	if err != nil {
		return nil, err
	}
	results := make([]fleet.RoundResult, 0, w.warmup+w.rounds)
	errs := make([]error, 0, w.warmup+w.rounds)
	for r := 0; r < w.warmup; r++ {
		rr, err := f.ShardedInvokeAll(fleetService, time.Duration(r)*fleetEpoch)
		results, errs = append(results, rr), append(errs, err)
	}
	pr.setup = time.Since(start)

	var decide, commit, aggregate time.Duration
	var offloads int
	ph := beginTimed()
	for r := w.warmup; r < w.warmup+w.rounds; r++ {
		id := tr.begin("fleet.round", -1, r)
		t0 := time.Now()
		rr, err := f.ShardedInvokeAll(fleetService, time.Duration(r)*fleetEpoch)
		d := time.Since(t0)
		tr.end(id)
		st := f.LastCommitStats()
		tr.record("fleet.decide", id, r, t0, st.DecisionWall)
		tr.record("fleet.commit", id, r, t0.Add(st.DecisionWall), st.CommitWall)
		results, errs = append(results, rr), append(errs, err)
		pr.latMS = append(pr.latMS, ms(d))
		decide += st.DecisionWall
		commit += st.CommitWall
		aggregate += d - st.DecisionWall - st.CommitWall
		offloads += st.Offloads
	}
	ph.end(pr)

	// Per-round checks, outside the timed phase.
	var simLat time.Duration
	pr.attempted = w.rounds
	for i := w.warmup; i < len(results); i++ {
		rr := results[i]
		pr.work += rr.Invocations
		simLat += rr.Mean()
		if errs[i] != nil || !w.roundOK(rr) {
			pr.failed++
		}
	}
	for i := 0; i < w.warmup; i++ {
		if errs[i] != nil || !w.roundOK(results[i]) {
			return nil, fmt.Errorf("warm-up round %d: %v %+v", i, errs[i], results[i])
		}
	}
	w.runs = append(w.runs, results)

	n := float64(w.rounds)
	pr.layers["fleet.decide_ms"] = ms(decide) / n
	pr.layers["fleet.commit_ms"] = ms(commit) / n
	pr.layers["fleet.aggregate_ms"] = ms(aggregate) / n
	pr.layers["fleet.offloads_per_round"] = float64(offloads) / n
	pr.layers["fleet.sim_latency_ms"] = ms(simLat) / n
	if tr != nil {
		now := time.Duration(w.warmup+w.rounds) * fleetEpoch
		decideUS, topoUS, err := decideProbe(tr, f.Vehicles()[0].Engine, now)
		if err != nil {
			return nil, err
		}
		pr.layers["offload.decide_us"] = decideUS
		pr.layers["tasks.topo_order_us"] = topoUS
	}
	return pr, nil
}

// roundOK checks one round's own invariants: every vehicle invoked, no
// vehicle failed, and a positive mean no larger than the round's max.
func (w *fleetWorkload) roundOK(rr fleet.RoundResult) bool {
	m := rr.Mean()
	return rr.Invocations == w.vehicles && rr.Failures == 0 && m > 0 && m <= rr.Max
}

// decideProbe times Engine.Decide and DAG.TopoOrder on the service's DAG,
// per call, in microseconds.
func decideProbe(tr *tracer, eng *offload.Engine, now time.Duration) (decideUS, topoUS float64, err error) {
	dag := tasks.ALPR()
	t0 := time.Now()
	for i := 0; i < probeCalls; i++ {
		id := tr.begin("offload.decide", -1, i)
		_, _, err = eng.Decide(dag, now)
		tr.end(id)
		if err != nil {
			return 0, 0, err
		}
	}
	decideUS = us(time.Since(t0)) / probeCalls
	t0 = time.Now()
	for i := 0; i < probeCalls; i++ {
		id := tr.begin("tasks.topo_order", -1, i)
		_, err = dag.TopoOrder()
		tr.end(id)
		if err != nil {
			return 0, 0, err
		}
	}
	topoUS = us(time.Since(t0)) / probeCalls
	return decideUS, topoUS, nil
}

// finish replays the same seed through a 1-shard fleet and requires every
// pass's round results to equal it round by round: the sharded executor's
// results must not depend on the shard count.
func (w *fleetWorkload) finish() (int, bool, error) {
	f, err := w.newFleet(1)
	if err != nil {
		return 0, false, err
	}
	ref := make([]fleet.RoundResult, w.warmup+w.rounds)
	for r := range ref {
		if ref[r], err = f.ShardedInvokeAll(fleetService, time.Duration(r)*fleetEpoch); err != nil {
			return 0, false, fmt.Errorf("reference round %d: %w", r, err)
		}
	}
	failed, ok := 0, true
	for _, run := range w.runs {
		for i, rr := range run {
			if rr == ref[i] {
				continue
			}
			if i < w.warmup {
				ok = false
			} else {
				failed++
			}
		}
	}
	return failed, ok, nil
}
