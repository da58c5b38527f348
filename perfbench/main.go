// Command perfbench is the repository's benchmark: it runs one named
// workload from a seed for a fixed time, checks every output it gets, and
// prints its metrics as one JSON line (see README.md). It measures the
// program from outside, timing the calls it makes into the public functions
// of gengraph, graph, gpualgo, simt and serve (over HTTP) and reading the
// counts those calls return.
//
//	perfbench -workload lib-skewed -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// outDir receives traces and temporary files; it lies inside the
	// checkout the benchmark runs from.
	outDir   string
	workload string
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int
	wrong             int // operations whose output failed a check
	endToEnd          map[string]metric
	perLayer          map[string]metric
}

func newReport() *report {
	return &report{endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
}

func (r *report) e2e(name, unit string, v float64)   { r.endToEnd[name] = metric{v, unit} }
func (r *report) layer(name, unit string, v float64) { r.perLayer[name] = metric{v, unit} }

var workloads = map[string]func(config) (*report, error){
	"lib-skewed": runSkewed,
	"lib-stream": runStream,
	"serve-rw":   runServe,
}

func main() {
	wl := flag.String("workload", "", "workload name: lib-skewed, lib-stream or serve-rw")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	traceOn := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for traces and temporary files")
	rev := flag.String("rev", "unknown", "revision of the code under test, for the run header")
	flag.Parse()

	run, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	printHeader(*wl, *seed, *seconds, *traceOn, *rev)
	rep, err := run(config{seed: *seed, seconds: *seconds, trace: *traceOn == 1, outDir: *outDir, workload: *wl})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		os.Exit(1)
	}
	fmt.Printf("# ops attempted=%d failed=%d wrong=%d\n", rep.attempted, rep.failed, rep.wrong)
	out := result{Correct: rep.wrong == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.endToEnd}
	if *traceOn == 1 {
		out.Metrics = rep.perLayer
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printHeader prints the host fingerprint, so figures from different hosts
// are never compared.
func printHeader(wl string, seed int64, seconds float64, traceOn int, rev string) {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", wl, seed, seconds, traceOn)
	fmt.Printf("# host cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s date=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev,
		time.Now().UTC().Format(time.RFC3339))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
