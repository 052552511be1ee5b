// Command roundbench measures the consensus tier's round pipeline: how fast
// a round closes and what each round costs, on three placements of the
// tier (a single cloud, region shards behind an aggregator, and edge gossip
// neighborhoods with a durable journal).
//
// Every workload is a closed loop driven from this one process: a round
// starts only after the previous round's last ratio has come back. Inputs
// are generated from -seed before each round's clock starts, and every run
// ends with a reference check: the tier's state hash must equal the hash of
// a plain cloud.Fold fed the same history.
//
//	go run . -workload direct-256 -seed 1 -seconds 20 -trace 0
//	go run . -workload all -seconds 5
//
// With -trace 0 the last line of standard output is a JSON object carrying
// the end-to-end metrics; with -trace 1 it carries the per-layer metrics of
// a traced run (spans recorded around the calls into each layer, registry
// counters harvested from the tier) and the spans are written to the
// output directory when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name, or all: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", defaultSeed, "input seed (censuses, vehicle decisions, late censuses, restart victims)")
		seconds  = flag.Float64("seconds", 10, "length of the timed round loop in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = untraced run printing end-to-end metrics")
		outDir   = flag.String("out", filepath.Join(".bench_build", "roundbench"), "directory for state directories and span dumps")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	var defs []workloadDef
	if *workload == "all" {
		defs = workloadList
	} else {
		def, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "roundbench: unknown workload %q (want all or one of %s)\n",
				*workload, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		defs = []workloadDef{def}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "roundbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	for _, def := range defs {
		res, err := run(def, config{
			seed:    *seed,
			seconds: time.Duration(*seconds * float64(time.Second)),
			trace:   *trace == 1,
			outDir:  *outDir,
			log:     os.Stdout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "roundbench: %s: %v\n", def.name, err)
			os.Exit(1)
		}
		if err := printJSON(os.Stdout, res, *trace == 1); err != nil {
			fmt.Fprintf(os.Stderr, "roundbench: %v\n", err)
			os.Exit(1)
		}
	}
}

// defaultSeed is the seed the benchmark runs without -seed; heldOutSeed is
// a seed kept out of tuning, on which every reference check must pass too.
const (
	defaultSeed = 1
	heldOutSeed = 20260807
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	outDir  string
	log     io.Writer
	smoke   bool // build each workload's smoke size (the benchmark's own tests)
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome: the reports attempted and failed, whether
// every reference check passed, and the metrics of the run's kind.
type result struct {
	workload  string
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
}

// printJSON writes the run's summary line: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
func printJSON(w io.Writer, res *result, traced bool) error {
	names := endToEndMetrics
	if traced {
		names = layerMetrics
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]metric{}}
	for _, d := range names {
		m, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.workload, d.name)
		}
		out.Metrics[d.name] = m
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
