package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"nacho/internal/emu"
	"nacho/internal/harness"
	"nacho/internal/power"
	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/snapshot"
	"nacho/internal/systems"
)

// crash-explore enumerates power-failure instants with snapshot.Explore over
// machines from harness.BuildMachine: the two deepest checkpoint windows of
// towers (deep stack, small data) and of dijkstra (data larger than the
// 512 B cache), on NACHO in the paper's intermittent configuration with
// forced checkpoints. Forks run without probes, so snapshot forking,
// copy-on-write memory and the cached hit path do the work and the verifier
// does none. An op is one crash instant; its latency runs from the start of
// its exploration to the delivery of its checked outcome. The inputs are
// fixed, so the seed only permutes the order of the two explorations.

// crashForcedPeriod forces a checkpoint every 50k cycles: half of a 2 ms
// on-duration at the modelled 50 MHz, the paper's forward-progress rule.
const crashForcedPeriod = 50_000

// crashTargets are the explored benchmarks: the stride between enumerated
// instants, and the exploration's Stats at the commit that defined this
// benchmark. Stats are simulated counts, so they repeat exactly.
var crashTargets = map[string]struct {
	stride uint64
	want   snapshot.Stats
}{
	"towers": {stride: 25, want: snapshot.Stats{Windows: 2, Instants: 2960,
		ScoutCycles: 970933, PrefixCycles: 970717, ForkCycles: 234305825, BootCycles: 2936754041}},
	"dijkstra": {stride: 20, want: snapshot.Stats{Windows: 2, Instants: 1408,
		ScoutCycles: 352528, PrefixCycles: 352222, ForkCycles: 47986078, BootCycles: 510542506}},
}

type crashTarget struct {
	factory snapshot.NewMachine
	opts    snapshot.Options
	ref     emu.Result // the failure-free run every outcome must match
}

type crashExplore struct {
	order   []string
	targets map[string]*crashTarget
	builds  buildTimes
	refNs   []float64 // ns per instruction of the failure-free runs

	tracedPasses int
	instants     int       // crash instants explored in traced passes
	counts       simCounts // of the first traced pass's outcomes
	instructions uint64    // of the first traced pass's outcomes
}

// crashConfig is the machine configuration: the paper's 512 B 2-way cache,
// forced checkpoints, and a final flush so every outcome halts with its
// stores in NVM.
func crashConfig(sched power.Schedule, probe sim.Probe) harness.RunConfig {
	return harness.RunConfig{
		CacheSize: 512, Ways: 2, Schedule: sched, Probe: probe,
		ForcedCheckpointPeriod: crashForcedPeriod,
		FinalFlush:             true, MaxInstructions: 1 << 40,
	}
}

func (w *crashExplore) setup(seed int64, m metricSet) error {
	names := make([]string, 0, len(crashTargets))
	for name := range crashTargets {
		names = append(names, name)
	}
	w.order = permute(names, seed)
	w.targets = map[string]*crashTarget{}
	w.refNs = w.refNs[:0]
	for _, name := range w.order {
		p, ok := program.ByName(name)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", name)
		}
		img, err := w.builds.benchmarkImage(p, systems.KindNACHO, crashConfig(nil, nil))
		if err != nil {
			return err
		}
		factory := func(sched power.Schedule, probe sim.Probe) (*emu.Machine, error) {
			mach, _, err := harness.BuildMachine(img, systems.KindNACHO, crashConfig(sched, probe))
			return mach, err
		}

		// The failure-free reference outcome, on the engine forks use.
		mach, err := factory(power.None{}, nil)
		if err != nil {
			return err
		}
		t := time.Now()
		ref, err := mach.Run()
		if err != nil {
			return fmt.Errorf("%s failure-free: %w", name, err)
		}
		w.refNs = append(w.refNs, float64(time.Since(t).Nanoseconds())/float64(ref.Counters.Instructions))

		// Count the checkpoint windows with one instant per window, then
		// target the deepest two.
		scout, err := snapshot.Explore(factory, snapshot.Options{Stride: 1 << 40}, func(snapshot.Outcome) bool { return true })
		if err != nil {
			return fmt.Errorf("%s scout: %w", name, err)
		}
		if scout.Windows < 3 {
			return fmt.Errorf("%s has %d checkpoint windows, want at least 3", name, scout.Windows)
		}
		w.targets[name] = &crashTarget{
			factory: factory, ref: ref,
			opts: snapshot.Options{
				SkipWindows: scout.Windows - 2, Windows: 2,
				Stride: crashTargets[name].stride, Workers: runtime.NumCPU(),
			},
		}
	}
	w.builds.report(m)
	return nil
}

func (w *crashExplore) pass(_ int, sp *spans) passResult {
	traced := sp != nil
	if traced {
		w.tracedPasses++
	}
	var res passResult
	root := sp.begin("pass", -1)
	defer sp.end(root)
	for _, name := range w.order {
		tg := w.targets[name]
		start := time.Now()
		id := sp.begin("snapshot.explore", root)
		ops, failed := 0, 0
		var (
			st  snapshot.Stats
			err error
		)
		withLabels(traced, func() {
			st, err = snapshot.Explore(tg.factory, tg.opts, func(o snapshot.Outcome) bool {
				c := sp.begin("check", id)
				withLabels(traced, func() {
					ops++
					if bad := tg.check(o); bad != nil {
						failed++
						if failed <= 5 {
							fmt.Fprintf(os.Stderr, "perfbench: crash-explore: %s instant %d: %v\n", name, o.Instant, bad)
						}
					}
					res.opLatency = append(res.opLatency, time.Since(start))
					if traced && w.tracedPasses == 1 {
						w.counts.add(o.Res.Counters)
						w.instructions += o.Res.Counters.Instructions
					}
				}, labelPhase, phaseCheck)
				sp.end(c)
				return true
			})
		}, "workload", "crash-explore", "benchmark", name)
		sp.end(id)
		if want := crashTargets[name].want; err != nil || st != want {
			fmt.Fprintf(os.Stderr, "perfbench: crash-explore: %s: error %v, stats %+v, recorded %+v\n", name, err, st, want)
			failed = ops
		}
		if ops == 0 {
			ops, failed = 1, 1 // an exploration that delivered nothing
		}
		res.ops += ops
		res.failed += failed
		if traced {
			w.instants += st.Instants
		}
	}
	return res
}

// check requires an outcome to halt cleanly with the failure-free run's exit
// code and final result word. Re-execution after a failure may repeat result
// stores, so the other reported words need only be among the failure-free
// run's.
func (tg *crashTarget) check(o snapshot.Outcome) error {
	switch {
	case o.Err != nil:
		return o.Err
	case o.Res.ExitCode != tg.ref.ExitCode:
		return fmt.Errorf("exit code %d, failure-free %d", o.Res.ExitCode, tg.ref.ExitCode)
	case o.Res.Result != tg.ref.Result:
		return fmt.Errorf("result %#x, failure-free %#x", o.Res.Result, tg.ref.Result)
	}
	for _, r := range o.Res.Results {
		if !slices.Contains(tg.ref.Results, r) {
			return fmt.Errorf("reported %#x, which the failure-free run never reports", r)
		}
	}
	return nil
}

func (w *crashExplore) layers(sp *spans, _ []sample, m metricSet) error {
	var st snapshot.Stats
	for _, name := range w.order {
		want := crashTargets[name].want
		st.Windows += want.Windows
		st.Instants += want.Instants
		st.ScoutCycles += want.ScoutCycles
		st.PrefixCycles += want.PrefixCycles
		st.ForkCycles += want.ForkCycles
		st.BootCycles += want.BootCycles
	}
	m.set("snapshot.instants", float64(st.Instants), "count")
	m.set("snapshot.windows", float64(st.Windows), "count")
	m.set("snapshot.sim_speedup", st.Speedup(), "ratio")

	// Wall time inside Explore, less the benchmark's own outcome checks.
	list := sp.snapshot()
	self := selfTimes(list)
	var exploreUs float64
	for i, s := range list {
		if s.name == "snapshot.explore" {
			exploreUs += float64(self[i]) / float64(time.Microsecond)
		}
	}
	if w.instants > 0 {
		m.set("snapshot.us_per_instant", exploreUs/float64(w.instants), "us")
	}

	// Engine runs count the forks, which carry no probe, on the engine the
	// machine configuration resolves to. The scouting runs are not counted.
	runs := map[emu.Engine]int{emu.Config{}.ResolveEngine(): st.Instants}
	m.set("emu.runs.ref", float64(runs[emu.EngineRef]), "count")
	m.set("emu.runs.aot", float64(runs[emu.EngineAOT]), "count")
	m.set("emu.instructions", float64(w.instructions), "count")
	m.set("emu.ns_per_instr", median(w.refNs), "ns")
	w.counts.report(m)
	return nil
}

// permute returns names in an order drawn from the seed.
func permute(names []string, seed int64) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
