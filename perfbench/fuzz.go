package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nacho/internal/fuzzer"
	"nacho/internal/harness"
	"nacho/internal/systems"
	"nacho/internal/telemetry"
)

// fuzz-campaign runs the differential campaign of `nachofuzz -seeds N`:
// fuzzer.Generate, then fuzzer.Check over the six default systems, for each
// seed, from one closed-loop worker per CPU. An op is one program; its
// latency runs from when a worker takes the seed to when Check returns. The
// seed base comes from the seed; pass i checks the next fuzzProgramsPerPass
// seeds after it.

const (
	fuzzProgramsPerPass = 2048
	// fuzzWarmup programs, seeded below the campaign's range, are generated,
	// rendered and built into a machine for every system at set-up.
	fuzzWarmup = 256
	// fuzzSeedSpan separates the seed ranges of different benchmark seeds.
	fuzzSeedSpan = 1_000_000
)

type fuzzCampaign struct {
	base   int64
	kinds  []systems.Kind
	builds buildTimes

	ledger       ledgerTap
	tracedPasses int
	oracleRuns   uint64 // oracle runs during traced passes
	registry     *telemetry.Registry
}

// fuzzMachineConfig is the oracle's cache geometry (the paper's 512 B, 2-way).
var fuzzMachineConfig = harness.RunConfig{CacheSize: 512, Ways: 2}

func (w *fuzzCampaign) setup(seed int64, m metricSet) error {
	w.base = seed * fuzzSeedSpan
	w.kinds = fuzzer.DefaultKinds()
	var gen []float64
	for i := int64(1); i <= fuzzWarmup; i++ {
		t := time.Now()
		prog := fuzzer.Generate(w.base - i)
		gen = append(gen, msSince(t))
		t = time.Now()
		img, err := prog.Render()
		if err != nil {
			return err
		}
		w.builds.build = append(w.builds.build, msSince(t))
		if err := w.builds.compileText(img); err != nil {
			return err
		}
		for _, kind := range append([]systems.Kind{systems.KindVolatile}, w.kinds...) {
			if err := w.builds.buildMachine(img, kind, fuzzMachineConfig); err != nil {
				return err
			}
		}
	}
	m.set("fuzzer.gen_ms", median(gen), "ms")
	w.builds.report(m)
	return nil
}

func (w *fuzzCampaign) pass(i int, sp *spans) passResult {
	traced := sp != nil
	if traced {
		if w.registry == nil {
			w.registry = telemetry.NewRegistry()
			fuzzer.RegisterMetrics(w.registry)
		}
		defer w.ledger.install()()
		w.tracedPasses++
		before := counter(w.registry, "nacho_fuzz_oracle_runs_total")
		defer func() { w.oracleRuns += counter(w.registry, "nacho_fuzz_oracle_runs_total") - before }()
	}
	first := w.base + int64(i)*fuzzProgramsPerPass
	var (
		next   atomic.Int64
		mu     sync.Mutex
		res    passResult
		failed []string
		wg     sync.WaitGroup
	)
	root := sp.begin("pass", -1)
	for n := 0; n < runtime.NumCPU(); n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			withLabels(traced, func() {
				for {
					k := next.Add(1) - 1
					if k >= fuzzProgramsPerPass {
						return
					}
					seed := first + k
					start := time.Now()
					op := sp.begin("op", root)
					g := sp.begin("fuzzer.gen", op)
					prog := fuzzer.Generate(seed)
					sp.end(g)
					c := sp.begin("fuzzer.check", op)
					findings, err := fuzzer.Check(prog, w.kinds, fuzzer.Config{})
					sp.end(c)
					sp.end(op)
					lat := time.Since(start)

					mu.Lock()
					res.ops++
					res.opLatency = append(res.opLatency, lat)
					if err != nil || len(findings) > 0 {
						res.failed++
						failed = append(failed, fmt.Sprintf("seed %d: error %v, findings %v", seed, err, findings))
					}
					mu.Unlock()
				}
			}, "workload", "fuzz-campaign")
		}()
	}
	wg.Wait()
	sp.end(root)
	for i, f := range failed {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: fuzz-campaign: %d more failures\n", len(failed)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: fuzz-campaign: %s\n", f)
	}
	return res
}

// counter reads one counter series from a metrics registry.
func counter(r *telemetry.Registry, name string) uint64 {
	for _, s := range r.Snapshot() {
		if s.Name == name {
			return uint64(s.Value)
		}
	}
	return 0
}

func (w *fuzzCampaign) layers(sp *spans, samples []sample, m metricSet) error {
	dur := durationsMs(sp.snapshot())
	m.set("fuzzer.gen_ms", median(dur["fuzzer.gen"]), "ms")
	m.set("fuzzer.check_ms", median(dur["fuzzer.check"]), "ms")
	// Set-up share: host time of the campaign's workers spent outside the
	// engine's run loop (generating, rendering, building machines and
	// verifiers, comparing final state).
	var labelled []sample
	for _, s := range samples {
		if s.labels["workload"] == "fuzz-campaign" {
			labelled = append(labelled, s)
		}
	}
	m.set("fuzzer.setup_share", 1-shareUnder(labelled, "nacho/internal/emu.(*Machine).Run"), "fraction")
	m.set("fuzzer.oracle_runs", float64(w.oracleRuns)/float64(w.tracedPasses), "count")

	st, err := w.ledger.stats()
	if err != nil {
		return err
	}
	st.report(m, w.tracedPasses)

	// Simulated counts: the set-up's warm-up programs, failure-free on NACHO
	// with a verifier attached.
	var counts simCounts
	for i := int64(1); i <= fuzzWarmup; i++ {
		img, err := fuzzer.Generate(w.base - i).Render()
		if err != nil {
			return err
		}
		if err := counts.verifiedRun(img, systems.KindNACHO, fuzzMachineConfig); err != nil {
			return err
		}
	}
	counts.report(m)
	return nil
}
