// Command perfbench is the repository's end-to-end benchmark. It times what
// users of the NACHO reproduction run — regenerating the paper's evaluation,
// a fixed-seed differential fuzz campaign, and exhaustive crash exploration —
// checks every output, and prints one JSON result as its last line. It runs
// in the checkout root, which run.sh builds it for and starts it in:
//
//	bash perfbench/run.sh --workload paper-regen --seed 1 --seconds 30 --trace 0
//
// With -trace 0 it prints the end-to-end metrics, measured with tracing off.
// With -trace 1 it prints the per-layer metrics of a traced run. README.md
// defines every metric and the workload it should move on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"nacho"
)

// endToEnd maps the end-to-end metrics BENCHMARK.json declares to their
// units.
var endToEnd = map[string]string{
	"setup_s":     "s",
	"wall_s":      "s",
	"cpu_s":       "s",
	"ops_per_s":   "1/s",
	"op_p50_ms":   "ms",
	"op_p99_ms":   "ms",
	"ok_frac":     "fraction",
	"peak_rss_mb": "MB",
}

// workloads are the benchmark's workloads by name.
var workloads = map[string]func() workload{
	"paper-regen":   func() workload { return &paperRegen{} },
	"fuzz-campaign": func() workload { return &fuzzCampaign{} },
	"crash-explore": func() workload { return &crashExplore{} },
}

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 5

// workload is one benchmark workload.
type workload interface {
	// setup prepares the workload's inputs from the seed. It runs setupReps
	// times and must be repeatable; layer metrics it measures go into m.
	setup(seed int64, m metricSet) error
	// pass runs one pass of operations. sp, when non-nil, records spans and
	// turns on profile labels.
	pass(i int, sp *spans) passResult
	// layers adds the per-layer metrics of the traced passes to m.
	layers(sp *spans, samples []sample, m metricSet) error
}

// passResult is one pass's work and outcome.
type passResult struct {
	ops, failed int
	// opLatency holds, per op, the time from when the op was issued to when
	// its checked result was delivered.
	opLatency []time.Duration
}

// timedPass is a finished pass with its wall time, CPU time and the bytes
// it allocated.
type timedPass struct {
	passResult
	wall, cpu time.Duration
	allocMB   float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: paper-regen, fuzz-campaign or crash-explore")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Int("seconds", 20, "how long to measure")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics of a traced run")
		workdir = flag.String("workdir", ".bench_build", "directory for profiles")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload <name> -seed <n> -seconds <s> -trace <0|1>")
		return 2
	}
	newWorkload, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	w := newWorkload()
	// Load comes from this one process, with one worker per CPU. Telemetry,
	// the run store, the ledger and campaign tracing are off unless a traced
	// pass turns the ledger on.
	nacho.SetParallelism(runtime.NumCPU())

	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// measure sets the workload up, runs its passes for the given duration and
// assembles the result.
func measure(w workload, seed int64, budget time.Duration, traced bool, workdir string) (*result, error) {
	layer := metricSet{}
	for _, name := range perLayerNames() {
		layer.set(name, 0, perLayer[name]) // a layer the workload does not touch reads 0
	}
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := w.setup(seed, layer); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	if traced {
		return measureTraced(w, budget, workdir, layer)
	}
	passes := runPasses(w, budget)
	res := &result{Metrics: metricSet{}}
	tally(res, passes)
	endToEndMetrics(res.Metrics, passes)
	res.Metrics.set("setup_s", median(setupS), "s")
	return res, declared(res.Metrics, endToEnd)
}

// measureTraced alternates untraced and traced passes, each pair on the same
// inputs, so that a slow stretch of the host weighs on both sides of
// trace.overhead, the ratio of their median pass times. It adds the
// per-layer metrics to layer and returns them.
func measureTraced(w workload, budget time.Duration, workdir string, layer metricSet) (*result, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "profile-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var (
		plain, tracedPasses []timedPass
		profiles            []string
	)
	sp := newSpans()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start)+(plain[i-1].wall+tracedPasses[i-1].wall)/2 < budget; i++ {
		plain = append(plain, runPass(w, i, nil))
		path := filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", i))
		stop, err := startProfile(path)
		if err != nil {
			return nil, err
		}
		tracedPasses = append(tracedPasses, runPass(w, i, sp))
		if err := stop(); err != nil {
			return nil, err
		}
		profiles = append(profiles, path)
	}
	samples, err := readProfiles(profiles)
	if err != nil {
		return nil, err
	}
	if err := w.layers(sp, samples, layer); err != nil {
		return nil, err
	}
	sh := shares(samples)
	for _, mod := range modules {
		layer.set(mod+".cpu_share", sh[mod], "fraction")
	}
	layer.set("runtime.map_cpu_share", sh[bucketMap], "fraction")
	layer.set("runtime.gc_cpu_share", sh[bucketGC], "fraction")
	layer.set("other.cpu_share", sh[bucketOther], "fraction")
	var allocMB []float64
	for _, p := range plain {
		allocMB = append(allocMB, p.allocMB)
	}
	layer.set("runtime.alloc_mb", median(allocMB), "MB")
	layer.set("trace.overhead", median(wallSeconds(tracedPasses))/median(wallSeconds(plain)), "ratio")

	res := &result{Metrics: layer}
	tally(res, plain)
	tally(res, tracedPasses)
	return res, declared(layer, perLayer)
}

// declared checks that m holds exactly the declared metrics, in their units.
func declared(m metricSet, want map[string]string) error {
	for name, unit := range want {
		if got, ok := m[name]; !ok || got.Unit != unit {
			return fmt.Errorf("metric %s: measured %+v, declared unit %s", name, got, unit)
		}
	}
	if len(m) != len(want) {
		return fmt.Errorf("measured %d metrics, declared %d", len(m), len(want))
	}
	return nil
}

// runPasses runs passes until the budget is spent, at least one. It starts
// no pass that would likely end more than half a pass past the budget, so the
// number of passes does not flip with small changes in pass time.
func runPasses(w workload, budget time.Duration) []timedPass {
	var out []timedPass
	start := time.Now()
	for i := 0; i == 0 || time.Since(start)+out[i-1].wall/2 < budget; i++ {
		out = append(out, runPass(w, i, nil))
	}
	return out
}

// runPass runs pass i and measures its wall time, CPU time and allocation.
func runPass(w workload, i int, sp *spans) timedPass {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := cpuTime(), time.Now()
	p := w.pass(i, sp)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)
	return timedPass{passResult: p, wall: wall, cpu: cpu,
		allocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)}
}

func tally(res *result, passes []timedPass) {
	for _, p := range passes {
		res.Attempted += p.ops
		res.Failed += p.failed
	}
	res.Correct = res.Attempted > 0 && res.Failed == 0
}

func wallSeconds(passes []timedPass) []float64 {
	var out []float64
	for _, p := range passes {
		out = append(out, p.wall.Seconds())
	}
	return out
}

// endToEndMetrics computes the untraced metrics other than setup_s. Each is
// the median over passes of the pass's own figure, so that a slow stretch of
// the host during one pass moves it little.
func endToEndMetrics(m metricSet, passes []timedPass) {
	var wall, cpu, rate, p50, p99 []float64
	ops, failed, samples := 0, 0, 0
	for _, p := range passes {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		rate = append(rate, float64(p.ops)/p.wall.Seconds())
		lat := make([]float64, len(p.opLatency))
		for i, l := range p.opLatency {
			lat[i] = ms(l)
		}
		p50 = append(p50, percentile(lat, 0.50))
		p99 = append(p99, percentile(lat, 0.99))
		ops += p.ops
		failed += p.failed
		samples += len(lat)
	}
	m.set("wall_s", median(wall), "s")
	m.set("cpu_s", median(cpu), "s")
	m.set("ops_per_s", median(rate), "1/s")
	m.set("op_p50_ms", median(p50), "ms")
	m.set("op_p99_ms", median(p99), "ms")
	m.set("ok_frac", float64(ops-failed)/float64(ops), "fraction")
	m.set("peak_rss_mb", peakRSSMB(), "MB")
	fmt.Fprintf(os.Stderr, "perfbench: %d passes, %d ops, %d failed, %d op latency samples\n",
		len(passes), ops, failed, samples)
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
