package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the call. Spans of one round share its round id; parent is the id
// of the enclosing span (the round's root span for top-level calls).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Round  int    `json:"round"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Layers of the round pipeline, named after the package doing the work.
// layerRound marks a live round's root span; layerReference marks the root
// of post-run work (reference fold replay, journal probes, restarts) that
// must not inflate a live round.
const (
	layerRound     = "round"
	layerReference = "reference"
	layerCloud     = "cloud"
	layerPolicy    = "policy"
	layerTransport = "transport"
	layerShard     = "shard"
	layerGossip    = "gossip"
	layerDurable   = "durable"
	layerEdge      = "edge"
)

// tracer keeps spans in memory; they are written out when the run ends. A
// nil tracer records nothing, and a tracer switched off records nothing
// either, so a traced run can alternate traced and untraced blocks and
// measure the cost of tracing itself.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64
	round atomic.Int64 // the round in flight (closed loop: one at a time)
	root  atomic.Int64 // its root span id

	ref int64 // root span id of post-run and between-round work

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.ref = t.newID()
	return t
}

// refRoot returns the root span id reference work hangs under (0 without a
// tracer).
func (t *tracer) refRoot() int64 {
	if t == nil {
		return 0
	}
	return t.ref
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// call runs fn inside a span of the given layer whose parent is parent (0 =
// the current round's root). When owner is non-nil it holds the span's id
// while fn runs, so spans recorded by conns that call makes (see
// tracedConn) nest under it. Tracing off, fn runs bare.
func (t *tracer) call(parent int64, owner *atomic.Int64, layer, name string, fn func()) {
	if !t.enabled() {
		fn()
		return
	}
	if parent == 0 {
		parent = t.root.Load()
	}
	s := span{ID: t.newID(), Parent: parent, Round: int(t.round.Load()), Layer: layer, Name: name}
	if owner != nil {
		owner.Store(s.ID)
	}
	s.Start = t.now()
	fn()
	s.End = t.now()
	if owner != nil {
		owner.Store(0)
	}
	t.add(s)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedConn times Send on a conn the benchmark dialed for the tier. The
// span's parent is the call owner currently holds (the benchmark call that
// caused the send), or the round's root when owner is idle: a send made
// inside the tier is joined to its round by round id.
type tracedConn struct {
	transport.Conn
	t     *tracer
	owner *atomic.Int64
}

func (c *tracedConn) Send(m transport.Message) error {
	if !c.t.enabled() {
		return c.Conn.Send(m)
	}
	parent := c.owner.Load()
	if parent == 0 {
		parent = c.t.root.Load()
	}
	s := span{ID: c.t.newID(), Parent: parent, Round: int(c.t.round.Load()), Layer: layerTransport, Name: "Send"}
	s.Start = c.t.now()
	err := c.Conn.Send(m)
	s.End = c.t.now()
	c.t.add(s)
	return err
}

// wrapDial wraps every conn dial makes in a tracedConn; without a tracer it
// returns dial unchanged, so an untraced run pays nothing.
func wrapDial(t *tracer, owner *atomic.Int64, dial func() (transport.Conn, error)) func() (transport.Conn, error) {
	if t == nil {
		return dial
	}
	return func() (transport.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return &tracedConn{Conn: c, t: t, owner: owner}, nil
	}
}

// selfTimes is the span analysis of a traced run's live rounds: per layer,
// the mean self time per round (a span's duration minus the part of it its
// children cover), and the root's own self time — the part of the round no
// layer explains.
type selfTimes struct {
	rounds      int
	roundP50    time.Duration
	layerMean   map[string]time.Duration
	unexplained time.Duration
}

func (t *tracer) analyze() selfTimes {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var self func(s span) time.Duration
	self = func(s span) time.Duration { return s.dur() - covered(s, children[s.ID]) }

	st := selfTimes{layerMean: map[string]time.Duration{}}
	var durs []float64
	var unexplained time.Duration
	layerSum := map[string]time.Duration{}
	for _, s := range spans {
		if s.Layer != layerRound {
			continue
		}
		st.rounds++
		durs = append(durs, float64(s.dur()))
		unexplained += self(s)
		// Walk the round's span tree.
		stack := append([]span(nil), children[s.ID]...)
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			layerSum[c.Layer] += self(c)
			stack = append(stack, children[c.ID]...)
		}
	}
	if st.rounds == 0 {
		return st
	}
	st.roundP50 = time.Duration(quantile(durs, 0.5))
	st.unexplained = unexplained / time.Duration(st.rounds)
	for l, d := range layerSum {
		st.layerMean[l] = d / time.Duration(st.rounds)
	}
	return st
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// durations returns the durations of every span with the given layer and
// name, in microseconds.
func (t *tracer) durations(layer, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// sumPerRound returns the total duration in microseconds of every live
// round's spans with the given layer and name, divided by rounds.
func (t *tracer) sumPerRound(layer, name string, rounds int) float64 {
	if rounds == 0 {
		return 0
	}
	total := 0.0
	for _, d := range t.durations(layer, name) {
		total += d
	}
	return total / float64(rounds)
}

// spanPath is where a traced run's spans are written; each run of a
// workload replaces the last one's, so repeated runs do not fill the disk.
func spanPath(outDir, workload string) string {
	return filepath.Join(outDir, "spans-"+workload+".jsonl")
}
