package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/edge"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/transport"
)

// shardedTier is the sharded-tcp-256 workload.
//
// Why it exists: the wire layer does most of the work here. The same
// 256-region, 100-vehicle fleet and field as direct-256 runs through an
// aggregator and 2 shard coordinators on loopback TCP (the shape
// cmd/loadgen spawns). The driver holds one edge.BatchLink per shard (2
// client connections) and reports each shard's region group once per
// round. Because the fleet is identical, sharded-tcp-256 minus direct-256
// is the cost of the wire and the shard barrier.
//
// What it predicts: codec and frame work (transport encode, decode, bytes)
// moves rounds_per_s, round_p50_ms and cpu_ms_per_round here and not on
// direct-256; a faster fold moves them here less than there; shard barrier
// changes move round_p50_ms and round_tail_ms here only.
type shardedTier struct {
	e       *env
	nc      *scenario.NodeConfig
	agg     *cloud.Server
	aggL    transport.Listener
	coords  []*shard.Coordinator
	ups     []*edge.BatchLink
	shardLs []transport.Listener
	links   []*edge.BatchLink
	owners  []*atomic.Int64 // per shard: the driver's Report span in flight
	groups  [][]int         // regions owned by each shard
	m       int
	in      *fleetInputs
	rounds  int // rounds prepared so far
	batches [][]transport.Census
	degrade []*obs.Counter
}

const shards = 2

func buildSharded(e *env) (tier, error) {
	m, vehicles := 256, 100
	if e.smoke {
		m, vehicles = 32, 20
	}
	nc, err := fleetConfig(scenario.RoleAggregator, m, e.obs)
	if err != nil {
		return nil, err
	}
	s := &shardedTier{e: e, nc: nc, m: m}
	if err := s.build(); err != nil {
		s.close()
		return nil, err
	}
	s.in = newFleetInputs(e.seed, m, vehicles, false)
	s.degrade = []*obs.Counter{
		e.obs.Counter("consensus_degraded_rounds_total", ""),
		e.obs.Counter("shard_degraded_rounds_total", ""),
	}
	return s, nil
}

func (s *shardedTier) build() error {
	var err error
	if s.agg, _, err = s.nc.NewCloud(); err != nil {
		return err
	}
	if s.aggL, err = s.nc.Listener(); err != nil {
		return err
	}
	go s.agg.Serve(s.aggL)
	table, err := scenario.ShardTable(shards, s.m)
	if err != nil {
		return err
	}
	for i := 0; i < shards; i++ {
		owner := new(atomic.Int64)
		s.owners = append(s.owners, owner)
		s.groups = append(s.groups, table.Regions(i))
		snc := scenario.Defaults(scenario.RoleShard)
		snc.Seed = int64(100 + i)
		snc.Shards = shards
		snc.ShardID = i
		snc.Regions = s.m
		snc.Obs = s.e.obs
		// The shard forwards inside the driver's Report to it, so its
		// upstream sends nest under that Report's span.
		dial := wrapDial(s.e.tr, owner, snc.DialFunc(s.aggL.Addr(), transport.WithTimeout(time.Minute)))
		coord, up, err := snc.NewShard(dial)
		if err != nil {
			return err
		}
		s.coords = append(s.coords, coord)
		s.ups = append(s.ups, up)
		l, err := snc.Listener()
		if err != nil {
			return err
		}
		s.shardLs = append(s.shardLs, l)
		go coord.Serve(l)
		s.links = append(s.links, &edge.BatchLink{
			Shard: i,
			Dialer: &transport.Dialer{
				Dial: wrapDial(s.e.tr, owner, s.nc.DialFunc(l.Addr())),
				Seed: s.e.seed + int64(i),
			},
			ReplyTimeout: 20 * time.Second,
			Obs:          s.e.obs,
		})
	}
	return nil
}

func (s *shardedTier) regions() int { return s.m }

func (s *shardedTier) prepare(r int) {
	row := s.in.row(r)
	s.rounds = r + 1
	s.batches = make([][]transport.Census, shards)
	for i, group := range s.groups {
		b := make([]transport.Census, len(group))
		for j, region := range group {
			b[j] = transport.Census{Edge: region, Round: r, Counts: s.in.pool[row[region]]}
		}
		s.batches[i] = b
	}
}

func (s *shardedTier) round(r int) (attempted, failed int) {
	var before [2]int64
	for i, c := range s.degrade {
		before[i] = c.Value()
	}
	var (
		wg   sync.WaitGroup
		fail [shards]bool
	)
	for i := range s.links {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var (
				reply transport.RatioBatch
				err   error
			)
			s.e.tr.call(0, s.owners[i], layerShard, "BatchLink.Report", func() {
				reply, err = s.links[i].Report(r, s.batches[i])
			})
			fail[i] = err != nil || len(reply.X) != len(s.batches[i])
		}(i)
	}
	wg.Wait()
	for i, c := range s.degrade {
		if c.Value() != before[i] {
			return s.m, s.m
		}
	}
	for i := range s.links {
		attempted += len(s.batches[i])
		if fail[i] {
			failed += len(s.batches[i])
		}
	}
	return attempted, failed
}

func (s *shardedTier) between(int, float64) error { return nil }

func (s *shardedTier) finish(rs *runState) error {
	history := func(r int) map[int][]int { return s.in.censuses(r, s.rounds) }
	return referenceFold(rs, s.nc, s.rounds, history, s.agg.StateHash(), "aggregator")
}

func (s *shardedTier) close() {
	for _, l := range s.links {
		l.Close()
	}
	for _, l := range s.shardLs {
		l.Close()
	}
	for _, c := range s.coords {
		c.Close()
	}
	for _, u := range s.ups {
		u.Close()
	}
	if s.aggL != nil {
		s.aggL.Close()
	}
	if s.agg != nil {
		s.agg.Close()
	}
}
