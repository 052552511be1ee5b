package main

// workloadList is every workload the benchmark runs, in report order. The
// names are fixed: later measurements cite them. Why each exists and which
// numbers it predicts will move is recorded beside its tier type.
//
// The tail percentile of each is the highest whose value held steady
// across seeds at the benchmark's 20-second run length. round_tail_ms is
// the median over the loop's three segments of each segment's percentile:
// a segment of direct-256 closes about 4000 rounds (40 beyond p99), of
// sharded-tcp-256 about 1200, of gossip-32 about 330 (over 30 beyond p90).
// Measured between seeds on a shared 2-vCPU host, p99.9 of direct-256
// moved 40% (it rests on a dozen rounds) and p99 of sharded-tcp-256 28%,
// past the 25% bound.
var workloadList = []workloadDef{
	{name: "direct-256", build: buildDirect, tail: 99},
	{name: "sharded-tcp-256", build: buildSharded, tail: 90},
	{name: "gossip-32", build: buildGossip, tail: 90},
}

func workloadNames() []string {
	out := make([]string, len(workloadList))
	for i, w := range workloadList {
		out[i] = w.name
	}
	return out
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
