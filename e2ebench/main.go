// Command e2ebench is colsort's end-to-end benchmark. It generates a named
// workload's inputs from a seed, drives the program through its public
// functions (Engine.Sort on files, or POST /v1/sort on an in-process
// server), checks every output against an independent reference, and
// prints every metric by name with its unit. The last line of its output
// is one JSON object:
//
//	{"correct": true, "attempted": 30, "failed": 0, "metrics": {"job_p50_s": {"value": 0.71, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones of a traced run, whose spans
// are written out when the run ends.
//
// Build and run it from the repository root with run.sh, which keeps the
// build cache and every scratch file under .bench_build:
//
//	bash e2ebench/run.sh --workload merge-64m --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	wlName := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 20, "length of the measured window, in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	scratch := flag.String("scratch", ".bench_build/tmp", "directory for inputs, outputs, engine scratch and spans")
	flag.Parse()

	wl, ok := workloadByName(*wlName)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: e2ebench --workload {%s} --seed N --seconds S --trace {0|1}\n", workloadNames())
		os.Exit(2)
	}
	c := config{wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		setups: wl.setups, minJobs: 2*tailBeyond + 1, commit: gitCommit(), out: os.Stdout}
	if c.trace {
		c.setups = 1
	}
	out, err := run(c, *scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, out); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// run executes one benchmark run in a fresh directory under scratch, which
// it removes afterwards.
func run(c config, scratch string) (outcome, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return outcome{}, err
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	c.dir = dir
	if c.trace {
		c.spansOut = filepath.Join(scratch, fmt.Sprintf("spans-%s-seed%d.jsonl", c.wl.name, c.seed))
	}

	ins := makeInputs(c.wl, c.seed)
	printEnv(c, ins)
	if c.wl.http {
		return runHTTP(c, ins)
	}
	return runFile(c, ins)
}

// printResult writes the final JSON line.
func printResult(w io.Writer, o outcome) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(o.metrics))
	for _, m := range o.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
