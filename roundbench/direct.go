package main

import (
	"repro/internal/cloud"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/transport"
)

// directTier is the direct-256 workload.
//
// Why it exists: the single-node baseline, where the fold does most of the
// work. One cloud node with no wire and no journal folds 256 regions (cycle
// graph, P1 band field, fixed lag 8) of 100 sampled vehicles each; one
// in-process caller submits each round as one Server.SubmitBatch. In 1
// round in 10 one seeded region also sends, through Server.Submit, a late
// census for the previous round that differs from its original, which
// drives the fold a second way: rewind to a window snapshot and re-fold.
//
// What it predicts: a faster fold (Fold.Apply, Fold.Hash, FDS
// UpdateRatios) moves rounds_per_s, round_p50_ms and cpu_ms_per_round here
// the most. Wire and journal work is absent, so a codec or frame change
// must leave every number here flat, and the transport and durable layer
// metrics read 0.
type directTier struct {
	e       *env
	nc      *scenario.NodeConfig
	srv     *cloud.Server
	m       int
	in      *fleetInputs
	rounds  int   // rounds prepared so far
	prev    []int // the previous round's row
	batch   transport.CensusBatch
	late    *transport.Census
	degrade *obs.Counter
}

func buildDirect(e *env) (tier, error) {
	m, vehicles := 256, 100
	if e.smoke {
		m, vehicles = 32, 20
	}
	nc, err := fleetConfig(scenario.RoleCloud, m, e.obs)
	if err != nil {
		return nil, err
	}
	srv, _, err := nc.NewCloud()
	if err != nil {
		return nil, err
	}
	return &directTier{
		e:       e,
		nc:      nc,
		srv:     srv,
		m:       m,
		in:      newFleetInputs(e.seed, m, vehicles, true),
		degrade: e.obs.Counter("consensus_degraded_rounds_total", ""),
	}, nil
}

func (d *directTier) regions() int { return d.m }

func (d *directTier) prepare(r int) {
	row := d.in.row(r)
	d.batch = transport.CensusBatch{Round: r, Censuses: make([]transport.Census, d.m)}
	for i, entry := range row {
		d.batch.Censuses[i] = transport.Census{Edge: i, Round: r, Counts: d.in.pool[entry]}
	}
	d.late = nil
	if region, entry, ok := d.in.lateCensus(r, d.prev); ok {
		d.late = &transport.Census{Edge: region, Round: r - 1, Counts: d.in.pool[entry]}
	}
	d.prev = row
	d.rounds = r + 1
}

func (d *directTier) round(r int) (attempted, failed int) {
	tr := d.e.tr
	before := d.degrade.Value()
	if d.late != nil {
		attempted++
		var err error
		tr.call(0, nil, layerCloud, "Server.Submit", func() { _, err = d.srv.Submit(*d.late) })
		if err != nil {
			failed++
		}
	}
	attempted += d.m
	var (
		reply transport.RatioBatch
		err   error
	)
	tr.call(0, nil, layerCloud, "Server.SubmitBatch", func() { reply, err = d.srv.SubmitBatch(d.batch) })
	if err != nil || len(reply.X) != d.m || d.degrade.Value() != before {
		failed += d.m
	}
	return attempted, failed
}

func (d *directTier) between(int, float64) error { return nil }

func (d *directTier) finish(rs *runState) error {
	history := func(r int) map[int][]int { return d.in.censuses(r, d.rounds) }
	return referenceFold(rs, d.nc, d.rounds, history, d.srv.StateHash(), "cloud")
}

func (d *directTier) close() { d.srv.Close() }
