package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cloud"
	"repro/internal/game"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/transport"
)

// workloadDef is one named workload: a builder for its tier at full or
// smoke size.
type workloadDef struct {
	name  string
	build func(e *env) (tier, error)
	// tail is the percentile round_tail_ms reports, fixed per workload so
	// that runs of different speed report the same percentile.
	tail float64
}

// env is what a tier is built with.
type env struct {
	seed  int64
	obs   *obs.Observer // shared by every node of the tier
	tr    *tracer       // nil in an untraced run
	dir   string        // fresh directory for this tier's state directories
	smoke bool          // build the workload's smoke size
}

// tier is one built placement of the consensus tier plus its load.
type tier interface {
	// regions is the number of regions reporting each round.
	regions() int
	// prepare generates round r's inputs; it runs before the round's clock
	// starts.
	prepare(r int)
	// round runs round r closed-loop: it returns once every region holds
	// its next ratio, with the region reports attempted and failed.
	round(r int) (attempted, failed int)
	// between runs scheduled events before round r (restarts, partition
	// and heal); phase is the elapsed share of the timed loop.
	between(r int, phase float64) error
	// finish runs the reference checks after the last round and adds the
	// tier's own per-layer measurements to rs.
	finish(rs *runState) error
	close()
}

// setupReps is how many times a run builds its tier: set-up time is the
// median, and the last build runs the rounds.
const setupReps = 5

// segments is how many consecutive, equally long segments the timed loop
// is cut into for the per-segment medians.
const segments = 3

// segment is one stretch of the timed loop.
type segment struct {
	start, end time.Time
	cpu        time.Duration // process CPU time at start
	cpuUsed    time.Duration
	lats       []float64 // round latencies, ms
}

func (sg *segment) close(end time.Time) {
	sg.end = end
	sg.cpuUsed = cpuTime() - sg.cpu
}

// warmup is how long a run drives untimed rounds before its timed loop
// (a quarter of the loop's length, for short runs).
const warmup = 2 * time.Second

// traceBlock is the length of the alternating traced and untraced blocks
// of a traced run, whose throughput ratio is the tracing overhead.
const traceBlock = 500 * time.Millisecond

// runState is the measurement state of one run, handed to tier.finish.
type runState struct {
	e       *env
	rounds  int // timed rounds
	traced  int // timed rounds inside traced blocks
	metrics map[string]metric
	notes   []string
	correct bool
}

func (rs *runState) set(name string, v float64) {
	rs.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (rs *runState) note(format string, args ...interface{}) {
	rs.notes = append(rs.notes, fmt.Sprintf(format, args...))
}

// fail records a failed reference check: the run is incorrect and every
// report in it counts as failed.
func (rs *runState) fail(format string, args ...interface{}) {
	rs.correct = false
	rs.note("CHECK FAILED: "+format, args...)
}

// run executes one workload run: repeated set-up, the timed closed loop,
// the reference checks, and the metric report.
func run(def workloadDef, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(cfg.outDir, "state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var (
		t      tier
		e      *env
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if t != nil {
			t.close()
			if err := os.RemoveAll(e.dir); err != nil {
				return nil, err
			}
		}
		e = &env{seed: cfg.seed, obs: obs.New(), dir: filepath.Join(base, fmt.Sprintf("setup-%d", rep)), smoke: cfg.smoke}
		if cfg.trace {
			e.tr = newTracer()
		}
		start := time.Now()
		t, err = def.build(e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		// The warm-up round 0 makes every lazy dial, so the timed loop
		// starts with the tier fully connected.
		t.prepare(0)
		if _, failed := t.round(0); failed > 0 {
			t.close()
			return nil, fmt.Errorf("set-up: warm-up round failed")
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer t.close()

	rs := &runState{e: e, metrics: map[string]metric{}, correct: true}
	if cfg.trace {
		defer transport.Instrument(nil)
	}
	// Warm up for a while before timing: threads, buffers and the
	// scheduler settle, so every timed round sees a steady process.
	r0 := 1
	for warm := time.Now(); time.Since(warm) < min(warmup, cfg.seconds/4); r0++ {
		t.prepare(r0)
		if _, failed := t.round(r0); failed > 0 {
			return nil, fmt.Errorf("warm-up round %d failed", r0)
		}
	}
	before := harvest(e.obs.Registry())
	// Start the timed loop from a quiet machine: set-up's dirty pages
	// written back and its garbage collected.
	syscall.Sync()
	runtime.GC()

	var (
		lats              []float64 // round latencies, ms
		segs              []segment
		attempted, failed int64
		blockRounds       [2]int
		blockTime         [2]time.Duration
		watchdog          = newWatchdog(def.name)
		sampler           = startRSSSampler()
		start             = time.Now()
	)
	defer watchdog.disarm()
	for r := r0; ; r++ {
		it0 := time.Now()
		el := it0.Sub(start)
		if el >= cfg.seconds {
			break
		}
		if i := int(segments * el / cfg.seconds); len(segs) <= i {
			if len(segs) > 0 {
				segs[len(segs)-1].close(it0)
			}
			segs = append(segs, segment{start: it0, cpu: cpuTime()})
		}
		traced := 0
		if cfg.trace && int(el/traceBlock)%2 == 1 {
			traced = 1
		}
		if cfg.trace && (r == r0 || e.tr.on.Load() != (traced == 1)) {
			e.tr.on.Store(traced == 1)
			if traced == 1 {
				transport.Instrument(e.obs)
			} else {
				transport.Instrument(nil)
			}
		}
		if err := t.between(r, float64(el)/float64(cfg.seconds)); err != nil {
			return nil, fmt.Errorf("before round %d: %w", r, err)
		}
		t.prepare(r)
		var root span
		if traced == 1 {
			root = span{ID: e.tr.newID(), Round: r, Layer: layerRound, Name: "round"}
			e.tr.round.Store(int64(r))
			e.tr.root.Store(root.ID)
			root.Start = e.tr.now()
		}
		watchdog.arm(r)
		t0 := time.Now()
		a, f := t.round(r)
		lat := time.Since(t0)
		watchdog.disarm()
		if traced == 1 {
			root.End = e.tr.now()
			e.tr.add(root)
		}
		lats = append(lats, float64(lat)/1e6)
		segs[len(segs)-1].lats = append(segs[len(segs)-1].lats, float64(lat)/1e6)
		attempted += int64(a)
		failed += int64(f)
		blockRounds[traced]++
		blockTime[traced] += time.Since(it0)
	}
	end := time.Now()
	elapsed := end.Sub(start)
	segs[len(segs)-1].close(end)
	rss := sampler.finish()
	rs.rounds = len(lats)
	rs.traced = blockRounds[1]
	if cfg.trace {
		e.tr.on.Store(true)
		transport.Instrument(nil)
	}
	after := harvest(e.obs.Registry())
	delta := after.minus(before)

	var refSpan span
	if cfg.trace {
		refSpan = span{ID: e.tr.refRoot(), Round: -1, Layer: layerReference, Name: "reference", Start: e.tr.now()}
	}
	if err := t.finish(rs); err != nil {
		return nil, err
	}
	if cfg.trace {
		refSpan.End = e.tr.now()
		e.tr.add(refSpan)
	}
	for _, name := range []string{"consensus_decode_failures_total", "shard_decode_failures_total",
		"durable_journal_errors_total", "gossip_journal_errors_total"} {
		if v := after.value(name); v != 0 {
			rs.fail("%s = %v", name, v)
		}
	}

	// End-to-end metrics.
	// Throughput, tail and CPU are medians over the loop's segments, so a
	// burst of interference from outside the process moves one segment, not
	// the run.
	n := len(lats)
	tailP := def.tail
	var rates, tails, cpus []float64
	for _, sg := range segs {
		rates = append(rates, float64(len(sg.lats))/sg.end.Sub(sg.start).Seconds())
		cpus = append(cpus, float64(sg.cpuUsed)/1e6/float64(len(sg.lats)))
		tails = append(tails, quantile(sg.lats, tailP/100))
		if beyond := float64(len(sg.lats)) * (100 - tailP) / 100; beyond < 10 {
			rs.note("round_tail_ms: only %.1f rounds of a segment lie beyond p%g; the run is shorter than the workload's run length", beyond, tailP)
		}
	}
	rs.set("rounds_per_s", quantile(rates, 0.5))
	rs.set("round_p50_ms", quantile(lats, 0.5))
	rs.set("round_tail_ms", quantile(tails, 0.5))
	rs.set("cpu_ms_per_round", quantile(cpus, 0.5))
	rs.set("max_rss_mb", quantile(rss, 0.5)/1e6)
	rs.set("setup_s", quantile(setups, 0.5))
	res := &result{workload: def.name, correct: rs.correct, attempted: attempted, failed: failed, metrics: rs.metrics}
	if !rs.correct {
		res.failed = res.attempted
	}

	w := cfg.log
	fmt.Fprintf(w, "workload %s: seed %d, %d regions, %.1f s timed loop, GOMAXPROCS %d, %d rounds\n",
		def.name, cfg.seed, t.regions(), elapsed.Seconds(), runtime.GOMAXPROCS(0), n)
	fmt.Fprintf(w, "  %-22s %12.4f %s  (median of %d segments; %.4f over the whole loop)\n", "rounds_per_s",
		rs.metrics["rounds_per_s"].Value, "1/s", len(segs), float64(n)/elapsed.Seconds())
	fmt.Fprintf(w, "  %-22s %12.4f %s\n", "round_p50_ms", rs.metrics["round_p50_ms"].Value, "ms")
	fmt.Fprintf(w, "  %-22s %12.4f %s  (p%g of each segment's ~%d rounds, median of %d segments)\n", "round_tail_ms",
		rs.metrics["round_tail_ms"].Value, "ms", tailP, n/len(segs), len(segs))
	fmt.Fprintf(w, "  %-22s %12.4f %s  (median of %d segments)\n", "cpu_ms_per_round", rs.metrics["cpu_ms_per_round"].Value, "ms", len(segs))
	fmt.Fprintf(w, "  %-22s %12.4f %s  (median of %d samples of resident memory)\n", "max_rss_mb", rs.metrics["max_rss_mb"].Value, "MB", len(rss))
	fmt.Fprintf(w, "  %-22s %12.4f %s  (median of %d set-ups)\n", "setup_s", rs.metrics["setup_s"].Value, "s", len(setups))
	fmt.Fprintf(w, "  %-22s %12.6f %s  (%d failed of %d region reports)\n", "error_rate",
		ratio(float64(res.failed), float64(res.attempted)), "ratio", res.failed, res.attempted)

	if cfg.trace {
		layerReport(rs, delta, blockRounds, blockTime)
		fmt.Fprintf(w, "  per-layer (traced run: %d traced rounds, %d untraced):\n", blockRounds[1], blockRounds[0])
		for _, d := range layerMetrics {
			fmt.Fprintf(w, "    %-30s %14.4f %s\n", d.name, rs.metrics[d.name].Value, d.unit)
		}
		if err := e.tr.write(spanPath(cfg.outDir, def.name)); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	for _, line := range rs.notes {
		fmt.Fprintf(w, "  %s\n", line)
	}
	return res, nil
}

// layerReport fills the per-layer metrics every workload shares: registry
// counters over the timed loop as per-round ratios, span timings, and the
// self-time breakdown of the traced rounds.
func layerReport(rs *runState, d counters, blockRounds [2]int, blockTime [2]time.Duration) {
	tr := rs.e.tr
	rounds := float64(rs.rounds)
	traced := float64(rs.traced)

	rs.set("cloud.submit_us", quantile(tr.durations(layerCloud, "Server.SubmitBatch"), 0.5))
	rs.set("cloud.barrier_ms", 1e3*ratio(d.sum("consensus_round_duration_seconds"), d.count("consensus_round_duration_seconds")))
	rs.set("cloud.rewinds_per_round", ratio(d.value("consensus_rewinds_total"), rounds))
	rs.set("cloud.degraded_rounds", d.value("consensus_degraded_rounds_total"))
	rs.set("cloud.digest_rounds", d.value("consensus_digest_rounds_total"))
	rs.set("policy.updates_per_round", ratio(d.value("fds_updates_total"), rounds))
	rs.note("base: %d timed rounds; %v consensus rewinds, %v FDS updates, %v digest rounds",
		rs.rounds, d.value("consensus_rewinds_total"), d.value("fds_updates_total"), d.value("consensus_digest_rounds_total"))

	rs.set("transport.bytes_per_round", ratio(d.value("transport_bytes_sent_total"), traced))
	rs.set("transport.encode_us_per_round", 1e6*ratio(d.sum("transport_codec_encode_seconds"), traced))
	rs.set("transport.decode_us_per_round", 1e6*ratio(d.sum("transport_codec_decode_seconds"), traced))
	rs.set("transport.send_us_per_round", tr.sumPerRound(layerTransport, "Send", rs.traced))
	rs.note("base: %d traced rounds; %v bytes sent, %d frames encoded, %d decoded",
		rs.traced, d.value("transport_bytes_sent_total"), int64(d.count("transport_codec_encode_seconds")),
		int64(d.count("transport_codec_decode_seconds")))

	rs.set("shard.report_us", quantile(tr.durations(layerShard, "BatchLink.Report"), 0.5))
	rs.set("shard.round_ms", 1e3*ratio(d.sum("shard_round_duration_seconds"), d.count("shard_round_duration_seconds")))
	rs.set("shard.forwards_per_round", ratio(d.value("shard_forwards_total"), rounds))
	rs.set("shard.forward_failures", d.value("shard_forward_failures_total"))
	rs.note("base: %v shard forwards, %v forward failures", d.value("shard_forwards_total"), d.value("shard_forward_failures_total"))

	rs.set("gossip.local_round_us", quantile(tr.durations(layerGossip, "Node.LocalRound"), 0.5))
	rs.set("gossip.peer_sends_per_round", ratio(d.value("gossip_peer_sends_total"), rounds))
	rs.set("gossip.degraded_rounds", d.value("gossip_degraded_rounds_total"))
	acked := d.value("gossip_digest_escalations_total")
	tried := acked + d.value("gossip_escalation_failures_total")
	rs.set("gossip.escalation_success", ratio(acked, tried))
	rs.note("base: %v of %v digest escalations acked; %v peer sends", acked, tried, d.value("gossip_peer_sends_total"))

	rs.set("durable.journal_errors", d.value("durable_journal_errors_total")+d.value("gossip_journal_errors_total"))
	rs.set("edge.distribute_us", quantile(tr.durations(layerEdge, "Distributor"), 0.5))

	st := tr.analyze()
	for _, l := range []string{layerCloud, layerTransport, layerShard, layerGossip, layerEdge} {
		rs.set(l+".self_ms", float64(st.layerMean[l])/1e6)
	}
	rs.set("obs.unexplained_ms", float64(st.unexplained)/1e6)
	rs.set("obs.traced_round_p50_ms", float64(st.roundP50)/1e6)
	var parts []string
	layers := make([]string, 0, len(st.layerMean))
	for l := range st.layerMean {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s %.4f", l, float64(st.layerMean[l])/1e6))
	}
	rs.note("self time per traced round (mean ms; concurrent spans can sum past the round): %v, unexplained %.4f, beside traced round p50 %.4f ms",
		parts, float64(st.unexplained)/1e6, float64(st.roundP50)/1e6)

	untracedRate := ratio(float64(blockRounds[0]), blockTime[0].Seconds())
	tracedRate := ratio(float64(blockRounds[1]), blockTime[1].Seconds())
	rs.set("obs.trace_overhead_pct", 100*(ratio(untracedRate, tracedRate)-1))
	rs.note("tracing overhead: %.2f rounds/s untraced (%d rounds) vs %.2f traced (%d rounds)",
		untracedRate, blockRounds[0], tracedRate, blockRounds[1])

	// Layers the workload does not run keep the zero they were given here.
	for _, d := range layerMetrics {
		if _, ok := rs.metrics[d.name]; !ok {
			rs.set(d.name, 0)
		}
	}
}

// counters is a registry harvest: every series summed over its labels.
type counters map[string]struct {
	value, sum, count float64
}

func harvest(reg *obs.Registry) counters {
	out := counters{}
	for _, p := range reg.Snapshot() {
		c := out[p.Name]
		c.value += p.Value
		c.sum += p.Sum
		c.count += float64(p.Count)
		out[p.Name] = c
	}
	return out
}

func (c counters) minus(base counters) counters {
	out := counters{}
	for name, v := range c {
		b := base[name]
		v.value -= b.value
		v.sum -= b.sum
		v.count -= b.count
		out[name] = v
	}
	return out
}

func (c counters) value(name string) float64 { return c[name].value }
func (c counters) sum(name string) float64   { return c[name].sum }
func (c counters) count(name string) float64 { return c[name].count }

// fleetConfig is the consensus configuration every workload folds: the
// sparse cycle region graph, the P1 band field and a fixed-lag window of 8
// (the shape cmd/loadgen spawns), otherwise the role's defaults — the
// default codec among them, so a change of default shows in the results.
func fleetConfig(role scenario.Role, m int, o *obs.Observer) (*scenario.NodeConfig, error) {
	field, err := scenario.P1BandField(m, decisions, 0.7, 0.1)
	if err != nil {
		return nil, err
	}
	nc := scenario.Defaults(role)
	nc.Regions = m
	nc.Beta = 3
	nc.Graph = scenario.CycleGraph(m)
	nc.X0 = 0.5
	nc.Field = field
	nc.Obs = o
	if role == scenario.RoleCloud || role == scenario.RoleAggregator {
		nc.FixedLag = 8
	}
	return nc, nil
}

// referenceFold replays history through a plain cloud.Fold built like the
// tier's and checks its hash against want. In a traced run it also times
// Fold.Apply on every round, and Fold.Hash, the allocations of both and
// FDS.UpdateRatios on a sample of rounds, all under the reference root so
// they never count toward a live round.
func referenceFold(rs *runState, nc *scenario.NodeConfig, rounds int, history func(r int) map[int][]int, want uint32, what string) error {
	model, err := nc.BuildModel()
	if err != nil {
		return err
	}
	field, _, err := nc.ResolveField(model)
	if err != nil {
		return err
	}
	newFDS := func() (*policy.FDS, error) { return policy.NewFDS(model, field, nc.Lambda) }
	fds, err := newFDS()
	if err != nil {
		return err
	}
	fold, err := cloud.NewFold(fds, game.NewUniformState(model.M(), model.K(), nc.X0))
	if err != nil {
		return err
	}
	tr := rs.e.tr
	var probe *policy.FDS
	if tr != nil {
		if probe, err = newFDS(); err != nil {
			return err
		}
	}
	const sampleEvery = 16
	var allocs []float64
	ref := tr.refRoot()
	for r := 0; r < rounds; r++ {
		censuses := history(r)
		if tr == nil {
			if err := fold.Apply(censuses); err != nil {
				return fmt.Errorf("reference fold round %d: %w", r, err)
			}
			continue
		}
		sampled := r%sampleEvery == 0
		var ms0, ms1 runtime.MemStats
		if sampled {
			runtime.ReadMemStats(&ms0)
		}
		tr.call(ref, nil, layerCloud, "Fold.Apply", func() { err = fold.Apply(censuses) })
		if err != nil {
			return fmt.Errorf("reference fold round %d: %w", r, err)
		}
		if !sampled {
			continue
		}
		tr.call(ref, nil, layerCloud, "Fold.Hash", func() { fold.Hash() })
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
		if err := probe.SetMemory(fold.Memory()); err != nil {
			return err
		}
		st := fold.State().Clone()
		tr.call(ref, nil, layerPolicy, "FDS.UpdateRatios", func() { _, err = probe.UpdateRatios(st) })
		if err != nil {
			return err
		}
	}
	got := fold.Hash()
	if got != want {
		rs.fail("%s hash %#08x != reference fold %#08x over %d rounds", what, want, got, rounds)
	} else {
		rs.note("check: %s hash %#08x == reference fold over %d rounds", what, want, rounds)
	}
	if tr != nil {
		rs.set("cloud.fold_apply_us", quantile(tr.durations(layerCloud, "Fold.Apply"), 0.5))
		rs.set("cloud.fold_hash_us", quantile(tr.durations(layerCloud, "Fold.Hash"), 0.5))
		rs.set("cloud.fold_allocs_per_round", quantile(allocs, 0.5))
		rs.set("policy.update_us", quantile(tr.durations(layerPolicy, "FDS.UpdateRatios"), 0.5))
	}
	return nil
}

// watchdog ends the process with a failed result when one round hangs, so
// a stuck tier costs one run rather than the whole benchmark.
type watchdog struct {
	name  string
	timer *time.Timer
	round atomic.Int64
}

const roundTimeout = 30 * time.Second

func newWatchdog(name string) *watchdog { return &watchdog{name: name} }

func (w *watchdog) arm(r int) {
	w.round.Store(int64(r))
	if w.timer == nil {
		w.timer = time.AfterFunc(roundTimeout, w.fire)
		return
	}
	w.timer.Reset(roundTimeout)
}

func (w *watchdog) disarm() {
	if w.timer != nil {
		w.timer.Stop()
	}
}

func (w *watchdog) fire() {
	fmt.Fprintf(os.Stderr, "roundbench: %s: round %d did not complete within %v\n", w.name, w.round.Load(), roundTimeout)
	os.Exit(1)
}
