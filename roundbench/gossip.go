package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/durable"
	"repro/internal/edge"
	"repro/internal/gossip"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/transport"
)

// gossipTier is the gossip-32 workload.
//
// Why it exists: the only workload where the gossip mesh, the escalation
// backlog, the edge layer and a journal restart do real work. 32 regions
// in gossip.Neighborhoods(32, 4) exchange censuses over loopback TCP and
// each neighborhood's leader escalates a digest every 4 rounds. The cloud
// dial fails for the middle third of the run, so the leaders build a
// backlog and drain it on heal. One seeded non-leader member journals to a
// state directory (an append and an fsync per round), and every 100 rounds
// it is closed between two rounds and reopened from that directory (a
// replay). Each round every edge runs its edge.Distributor for 32 seeded
// vehicles (BeginRound at its current ratio, AddUpload x32, Distribute,
// Census) and then calls Node.LocalRound.
//
// Only one member journals because fsync latency on a shared disk is not a
// property of the program: with every member and the cloud journaling (33
// fsyncs on each round's path) the round rate swung 2x between runs minutes
// apart while CPU per round held within 7%. The traced run still times the
// journal append for every member's record (durable.append_us).
//
// What it predicts: gossip and edge changes move round_p50_ms and
// round_tail_ms here only (the restart replay moves the tail); fold work
// moves cpu_ms_per_round here too, since 33 full-state folds run per round.
// The workload stops at 32 regions because every member folds the full
// M-region state: at 64 regions a round already takes tens of
// milliseconds, so a larger gossip series waits for a change that removes
// the full-state fold.
type gossipTier struct {
	e     *env
	nc    *scenario.NodeConfig // edge template: model and field resolved once
	cnc   *scenario.NodeConfig // cloud
	opts  []transport.TCPOption
	m     int
	hoods [][]int
	hood  []int // region -> neighborhood

	cloud  *cloud.Server
	cloudL transport.Listener
	nodes  []*gossip.Node
	ls     []transport.Listener
	owners []*atomic.Int64 // per region: the LocalRound span in flight

	addrMu sync.RWMutex
	addrs  []string

	dists    []*edge.Distributor
	xs       []float64
	vehicles [][]vehicleSim
	uploads  [][]transport.Upload
	rounds   int // rounds prepared so far

	journaled    int // the member with a state directory, restarted every restartEvery rounds
	restartEvery int
	partitioned  atomic.Bool
	partDone     bool
	draining     bool
	healAt       time.Time
	healRound    int
	drain        []float64 // ms, per heal
	backlogPeak  float64
	replays      []float64 // ms, per restart
	restartFails []string
	uploadCount  int64
	degrade      *obs.Counter
}

// vehicleSim is one seeded vehicle: a fixed preference over the decisions
// and its items under each decision (the modalities that decision shares).
type vehicleSim struct {
	id    int
	pref  preference
	items [][]transport.Item // by decision-1
}

const (
	hoodCount      = 4
	escalateEvery  = 4
	gossipVehicles = 32
)

func buildGossip(e *env) (tier, error) {
	m, restartEvery := 32, 100
	if e.smoke {
		m, restartEvery = 16, 10
	}
	g := &gossipTier{e: e, m: m, restartEvery: restartEvery}
	if err := g.build(); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

func (g *gossipTier) build() error {
	var err error
	if g.hoods, err = gossip.Neighborhoods(g.m, hoodCount); err != nil {
		return err
	}
	g.hood = make([]int, g.m)
	for h, members := range g.hoods {
		for _, r := range members {
			g.hood[r] = h
		}
	}
	if g.cnc, err = fleetConfig(scenario.RoleCloud, g.m, g.e.obs); err != nil {
		return err
	}
	if g.cloud, _, err = g.cnc.NewCloud(); err != nil {
		return err
	}
	if g.cloudL, err = g.cnc.Listener(); err != nil {
		return err
	}
	go g.cloud.Serve(g.cloudL)

	if g.nc, err = fleetConfig(scenario.RoleEdge, g.m, g.e.obs); err != nil {
		return err
	}
	if g.nc.Model, err = g.nc.BuildModel(); err != nil {
		return err
	}
	g.nc.GossipOf = len(g.hoods)
	g.nc.GossipEvery = escalateEvery
	if g.opts, err = g.nc.TCPOptions(); err != nil {
		return err
	}

	pick := newStream(g.e.seed, streamJournaled)
	members := g.hoods[pick.intn(len(g.hoods))]
	if len(members) < 2 {
		return fmt.Errorf("neighborhood %v has no non-leader member to restart", members)
	}
	g.journaled = members[1+pick.intn(len(members)-1)] // members[0] leads
	lat := lattice.NewPaper()
	g.nodes = make([]*gossip.Node, g.m)
	g.ls = make([]transport.Listener, g.m)
	g.addrs = make([]string, g.m)
	g.owners = make([]*atomic.Int64, g.m)
	g.xs = make([]float64, g.m)
	g.uploads = make([][]transport.Upload, g.m)
	for r := 0; r < g.m; r++ {
		g.owners[r] = new(atomic.Int64)
		g.xs[r] = g.nc.X0
		// The edge layer of scenario.NewEdge, without its vehicle sockets:
		// the same Distributor over the paper lattice.
		g.dists = append(g.dists, edge.NewDistributor(lat, g.e.seed+int64(r)))
		g.vehicles = append(g.vehicles, newVehicles(newStream(g.e.seed, streamVehicles, r), lat, r))
	}
	for r := 0; r < g.m; r++ {
		if err := g.startNode(r); err != nil {
			return err
		}
	}
	g.degrade = g.e.obs.Counter("gossip_degraded_rounds_total", "")
	return nil
}

func newVehicles(s *stream, lat *lattice.Lattice, region int) []vehicleSim {
	out := make([]vehicleSim, gossipVehicles)
	for v := range out {
		vs := vehicleSim{id: region*1000 + v, pref: newPreference(s)}
		for k := 1; k <= lat.K(); k++ {
			share := lat.MustShare(lattice.Decision(k))
			var items []transport.Item
			for _, t := range share.Types() {
				items = append(items, transport.Item{Owner: vs.id, Modality: t})
			}
			vs.items = append(vs.items, items)
		}
		out[v] = vs
	}
	return out
}

// startNode builds (or rebuilds, reopening its state directory) region r's
// gossip node and listener.
func (g *gossipTier) startNode(r int) error {
	c := *g.nc
	c.ID = r
	c.Seed = g.e.seed + int64(r)
	c.GossipHood = g.hood[r]
	if r == g.journaled {
		c.StateDir = filepath.Join(g.e.dir, "gossip-"+strconv.Itoa(r))
	}
	owner := g.owners[r]
	peerDial := func(member int) (transport.Conn, error) {
		g.addrMu.RLock()
		addr := g.addrs[member]
		g.addrMu.RUnlock()
		return wrapDial(g.e.tr, owner, func() (transport.Conn, error) { return transport.DialTCP(addr, g.opts...) })()
	}
	cloudAddr := g.cloudL.Addr()
	cloudDial := wrapDial(g.e.tr, owner, func() (transport.Conn, error) {
		if g.partitioned.Load() {
			return nil, errPartitioned
		}
		return transport.DialTCP(cloudAddr, g.opts...)
	})
	node, _, err := c.NewGossipNode(g.hoods[g.hood[r]], peerDial, cloudDial)
	if err != nil {
		return err
	}
	l, err := c.Listener()
	if err != nil {
		node.Close()
		return err
	}
	g.nodes[r], g.ls[r] = node, l
	g.addrMu.Lock()
	g.addrs[r] = l.Addr()
	g.addrMu.Unlock()
	go node.Serve(l)
	return nil
}

var errPartitioned = errors.New("cloud partitioned away")

func (g *gossipTier) regions() int { return g.m }

func (g *gossipTier) prepare(r int) {
	for region, vehicles := range g.vehicles {
		ups := make([]transport.Upload, len(vehicles))
		for i, k := range g.decisions(r, region) {
			v := vehicles[i]
			ups[i] = transport.Upload{Vehicle: v.id, Round: r, Decision: k + 1, Items: v.items[k]}
		}
		g.uploads[region] = ups
	}
	g.rounds = r + 1
}

// decisions returns the decision index (0-based) each of region's vehicles
// takes in round r.
func (g *gossipTier) decisions(r, region int) []int {
	s := newStream(g.e.seed, streamDecisions, r, region)
	out := make([]int, len(g.vehicles[region]))
	for i, v := range g.vehicles[region] {
		out[i] = v.pref.draw(s)
	}
	return out
}

// census returns region's census in round r: what its Distributor counts
// from the uploads.
func (g *gossipTier) census(r, region int) []int {
	counts := make([]int, decisions)
	for _, k := range g.decisions(r, region) {
		counts[k]++
	}
	return counts
}

func (g *gossipTier) round(r int) (attempted, failed int) {
	before := g.degrade.Value()
	var (
		wg    sync.WaitGroup
		fails atomic.Int64
	)
	tr := g.e.tr
	for region := 0; region < g.m; region++ {
		wg.Add(1)
		go func(region int) {
			defer wg.Done()
			var (
				counts []int
				x      float64
				err    error
			)
			d := g.dists[region]
			tr.call(0, nil, layerEdge, "Distributor", func() {
				if err = d.BeginRound(r, g.xs[region]); err != nil {
					return
				}
				for _, u := range g.uploads[region] {
					if err = d.AddUpload(u); err != nil {
						return
					}
				}
				d.Distribute()
				counts = d.Census()
			})
			if err == nil {
				tr.call(0, g.owners[region], layerGossip, "Node.LocalRound", func() {
					x, err = g.nodes[region].LocalRound(r, counts)
				})
			}
			if err != nil {
				fails.Add(1)
				return
			}
			g.xs[region] = x
		}(region)
	}
	wg.Wait()
	g.uploadCount += int64(g.m * gossipVehicles)
	if g.degrade.Value() != before {
		return g.m, g.m
	}
	return g.m, int(fails.Load())
}

// between applies the schedule: the cloud partition over the middle third
// of the run, the drain watch after the heal, and the periodic restart of
// the journaled member.
func (g *gossipTier) between(r int, phase float64) error {
	switch {
	case !g.partDone && !g.partitioned.Load() && phase >= 1.0/3:
		g.partitioned.Store(true)
	case g.partitioned.Load() && phase >= 2.0/3:
		g.partitioned.Store(false)
		g.partDone = true
		g.draining = true
		g.healAt = time.Now()
		g.healRound = r - 1
	}
	if g.draining && g.cloud.Latest() >= g.healRound {
		g.drain = append(g.drain, float64(time.Since(g.healAt))/1e6)
		g.draining = false
	}
	for _, members := range g.hoods {
		gauge := g.e.obs.Registry().GaugeVec("gossip_escalation_backlog", "", "edge").With(strconv.Itoa(members[0]))
		if v := gauge.Value(); v > g.backlogPeak {
			g.backlogPeak = v
		}
	}
	if r%g.restartEvery == 0 {
		return g.restart()
	}
	return nil
}

// restart closes the journaled member and reopens it from its state
// directory; its recovered state hash must equal its hash before.
func (g *gossipTier) restart() error {
	victim := g.journaled
	want := g.nodes[victim].StateHash()
	g.ls[victim].Close()
	g.nodes[victim].Close()
	var err error
	start := time.Now()
	g.e.tr.call(g.e.tr.refRoot(), nil, layerDurable, "Node.Open", func() { err = g.startNode(victim) })
	if err != nil {
		return fmt.Errorf("reopening member %d: %w", victim, err)
	}
	g.replays = append(g.replays, float64(time.Since(start))/1e6)
	if got := g.nodes[victim].StateHash(); got != want {
		g.restartFails = append(g.restartFails, fmt.Sprintf("member %d recovered hash %#08x, had %#08x", victim, got, want))
	}
	return nil
}

func (g *gossipTier) finish(rs *runState) error {
	g.partitioned.Store(false)
	for _, members := range g.hoods {
		if err := g.nodes[members[0]].Flush(); err != nil {
			rs.fail("leader %d flush: %v", members[0], err)
		}
	}
	last := g.rounds - 1
	if got := g.cloud.Latest(); got != last {
		rs.fail("cloud folded through round %d after the flush, want %d", got, last)
	}
	for h, members := range g.hoods {
		want := g.nodes[members[0]].StateHash()
		for _, r := range members[1:] {
			if got := g.nodes[r].StateHash(); got != want {
				rs.fail("neighborhood %d: member %d hash %#08x != leader's %#08x", h, r, got, want)
			}
		}
	}
	for _, f := range g.restartFails {
		rs.fail("%s", f)
	}
	rs.note("check: %d restarted members recovered their state hash", len(g.replays)-len(g.restartFails))
	history := func(r int) map[int][]int {
		out := make(map[int][]int, g.m)
		for region := 0; region < g.m; region++ {
			out[region] = g.census(r, region)
		}
		return out
	}
	if err := referenceFold(rs, g.cnc, g.rounds, history, g.cloud.StateHash(), "cloud"); err != nil {
		return err
	}
	if rs.e.tr == nil {
		return nil
	}
	rs.set("gossip.backlog_peak", g.backlogPeak)
	rs.set("gossip.drain_ms", quantile(g.drain, 0.5))
	rs.set("durable.replay_ms", quantile(g.replays, 0.5))
	rs.set("edge.uploads_per_round", ratio(float64(g.uploadCount), float64(g.rounds)))
	rs.note("base: %d restarts, %d heals, backlog peak %v rounds", len(g.replays), len(g.drain), g.backlogPeak)
	return g.appendProbe(rs)
}

// appendProbe times durable.Store.Append (fsync included) of the
// workload's own round records — what each member journals per round —
// into a store the benchmark owns.
func (g *gossipTier) appendProbe(rs *runState) error {
	store, err := durable.Open(filepath.Join(g.e.dir, "append-probe"))
	if err != nil {
		return err
	}
	defer store.Close()
	if _, err := store.Replay(func([]byte) error { return nil }); err != nil {
		return err
	}
	const records = 64
	tr := rs.e.tr
	var sizes []float64
	for i := 0; i < records && i < g.rounds; i++ {
		r := g.rounds - 1 - i
		rec := durable.RoundRecord{Round: r, Censuses: map[int][]int{}}
		for _, region := range g.hoods[0] {
			rec.Censuses[region] = g.census(r, region)
		}
		payload, err := durable.EncodeRound(rec)
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(len(payload)))
		tr.call(tr.refRoot(), nil, layerDurable, "Store.Append", func() { err = store.Append(payload) })
		if err != nil {
			return err
		}
	}
	rs.set("durable.append_us", quantile(tr.durations(layerDurable, "Store.Append"), 0.5))
	rs.set("durable.record_bytes", mean(sizes))
	return nil
}

func (g *gossipTier) close() {
	for r, n := range g.nodes {
		if g.ls[r] != nil {
			g.ls[r].Close()
		}
		if n != nil {
			n.Close()
		}
	}
	if g.cloudL != nil {
		g.cloudL.Close()
	}
	if g.cloud != nil {
		g.cloud.Close()
	}
}
