package harness

import (
	"bytes"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"nacho/internal/program"
	"nacho/internal/sim"
	"nacho/internal/systems"
	"nacho/internal/telemetry"
)

func mustProgram(t testing.TB, name string) *program.Program {
	t.Helper()
	p, ok := program.ByName(name)
	if !ok {
		t.Fatalf("%s benchmark missing", name)
	}
	return p
}

// TestPoolAccounting asserts every run — cached-path or not — lands in the
// process-wide pool counters that /metrics and /status read.
func TestPoolAccounting(t *testing.T) {
	before := Status()
	res, err := Run(mustProgram(t, "crc"), systems.KindNACHO, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	after := Status()
	if got := after.RunsStarted - before.RunsStarted; got != 1 {
		t.Errorf("runs started delta = %d, want 1", got)
	}
	if got := after.RunsCompleted - before.RunsCompleted; got != 1 {
		t.Errorf("runs completed delta = %d, want 1", got)
	}
	if got := after.SimulatedCycles - before.SimulatedCycles; got != res.Counters.Cycles {
		t.Errorf("simulated cycles delta = %d, want %d", got, res.Counters.Cycles)
	}
	if after.SimulatedCyclesPerSec <= 0 {
		t.Errorf("cycles/sec = %g, want > 0 after a run", after.SimulatedCyclesPerSec)
	}
}

// TestRunCacheCountsBypassAndHits pins the cache-path accounting: probed runs
// bypass (and are counted as such), repeated unprobed runs hit.
func TestRunCacheCountsBypassAndHits(t *testing.T) {
	p := mustProgram(t, "crc")
	cfg := DefaultRunConfig()
	beforeBypass := pool.cacheBypassed.Load()
	beforeHits := pool.cacheHits.Load()

	rc := newRunCache()
	probed := cfg
	probed.Probe = sim.NewCounterProbe()
	if _, err := rc.get(p, systems.KindNACHO, probed); err != nil {
		t.Fatal(err)
	}
	if rc.bypassed != 1 {
		t.Errorf("rc.bypassed = %d, want 1", rc.bypassed)
	}
	if got := pool.cacheBypassed.Load() - beforeBypass; got != 1 {
		t.Errorf("pool bypass delta = %d, want 1", got)
	}

	if _, err := rc.get(p, systems.KindNACHO, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.get(p, systems.KindNACHO, cfg); err != nil {
		t.Fatal(err)
	}
	if rc.runs != 1 || rc.hits != 1 {
		t.Errorf("runs=%d hits=%d, want 1/1", rc.runs, rc.hits)
	}
	if got := pool.cacheHits.Load() - beforeHits; got != 1 {
		t.Errorf("pool hit delta = %d, want 1", got)
	}
}

// TestTimingReportsBypassedRuns asserts the previously silent cache bypass
// for probed runs is surfaced in the Timing line.
func TestTimingReportsBypassedRuns(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	p := mustProgram(t, "crc")
	probed := DefaultRunConfig()
	probed.Probe = sim.NewCounterProbe()
	rep, err := regenerate(func(rc *runCache) (*Report, error) {
		if _, err := rc.get(p, systems.KindNACHO, probed); err != nil {
			return nil, err
		}
		if _, err := rc.get(p, systems.KindNACHO, DefaultRunConfig()); err != nil {
			return nil, err
		}
		return &Report{Title: "bypass probe"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Timing, "1 probed runs bypassed the run cache") {
		t.Errorf("Timing does not surface the bypass: %q", rep.Timing)
	}

	plain, err := regenerate(func(rc *runCache) (*Report, error) {
		if _, err := rc.get(p, systems.KindNACHO, DefaultRunConfig()); err != nil {
			return nil, err
		}
		return &Report{Title: "no bypass"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.Timing, "bypassed") {
		t.Errorf("Timing mentions a bypass without probed runs: %q", plain.Timing)
	}
}

// TestLedgerIndependentOfWorkers pins that the run ledger and the Timing
// line's hit count do not depend on the worker count: a prewarmed entry's
// first assembly-pass request is the request the prewarm served, so it
// neither counts as a hit nor writes a second record. The ledgers must be
// equal as multisets of records (worker order permutes them; wall time is
// the only field allowed to differ).
func TestLedgerIndependentOfWorkers(t *testing.T) {
	p := mustProgram(t, "crc")
	// One duplicate request, so the hit path is exercised at every -j.
	dup := func(rc *runCache) (*Report, error) {
		for _, kind := range []systems.Kind{systems.KindNACHO, systems.KindVolatile, systems.KindNACHO} {
			if _, err := rc.get(p, kind, DefaultRunConfig()); err != nil {
				return nil, err
			}
		}
		return &Report{Title: "duplicate request"}, nil
	}
	fig5crc := func(rc *runCache) (*Report, error) { return fig5(rc, []string{"crc"}) }
	hitsRe := regexp.MustCompile(`\((\d+) cache hits\)`)

	type outcome struct {
		records []string
		hits    []string
	}
	run := func(workers int) outcome {
		prevWorkers := SetWorkers(workers)
		defer SetWorkers(prevWorkers)
		var buf bytes.Buffer
		l := telemetry.NewLedger(&buf)
		prevLedger := telemetry.SetActiveLedger(l)
		defer telemetry.SetActiveLedger(prevLedger)
		var out outcome
		for _, build := range []func(*runCache) (*Report, error){dup, fig5crc} {
			rep, err := regenerate(build)
			if err != nil {
				t.Fatalf("-j%d: %v", workers, err)
			}
			m := hitsRe.FindStringSubmatch(rep.Timing)
			if m == nil {
				t.Fatalf("-j%d: no hit count in Timing %q", workers, rep.Timing)
			}
			out.hits = append(out.hits, m[1])
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		recs, _, err := telemetry.ReadLedger(&buf)
		if err != nil {
			t.Fatalf("-j%d: read ledger: %v", workers, err)
		}
		for _, r := range recs {
			r.WallMicros = 0
			out.records = append(out.records, fmt.Sprintf("%+v", r))
		}
		sort.Strings(out.records)
		return out
	}
	seq, par := run(1), run(2)
	if want := []string{"1", "0"}; strings.Join(seq.hits, ",") != strings.Join(want, ",") {
		t.Errorf("-j1 cache hits = %v, want %v", seq.hits, want)
	}
	if strings.Join(seq.hits, ",") != strings.Join(par.hits, ",") {
		t.Errorf("cache hits differ: -j1 %v, -j2 %v", seq.hits, par.hits)
	}
	if len(seq.records) != len(par.records) {
		t.Fatalf("ledger records: -j1 %d, -j2 %d", len(seq.records), len(par.records))
	}
	for i := range seq.records {
		if seq.records[i] != par.records[i] {
			t.Fatalf("ledgers differ:\n  -j1: %s\n  -j2: %s", seq.records[i], par.records[i])
		}
	}
}

// TestRegisterMetrics asserts the harness series land in a registry and carry
// the live pool values.
func TestRegisterMetrics(t *testing.T) {
	if _, err := Run(mustProgram(t, "crc"), systems.KindVolatile, DefaultRunConfig()); err != nil {
		t.Fatal(err)
	}
	r := telemetry.NewRegistry()
	RegisterMetrics(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, name := range []string{
		"nacho_harness_runs_started_total",
		"nacho_harness_runs_completed_total",
		"nacho_harness_cache_hits_total",
		"nacho_harness_cache_bypassed_probed_total",
		"nacho_harness_simulated_cycles_total",
		"nacho_harness_workers",
		"nacho_harness_workers_busy",
		"nacho_harness_experiment_jobs",
		"nacho_harness_experiment_jobs_done",
		"nacho_harness_simulated_cycles_per_sec",
	} {
		if !strings.Contains(text, "\n"+name+" ") {
			t.Errorf("exposition missing %s:\n%s", name, text)
		}
	}
	st := Status()
	if st.RunsCompleted == 0 || st.SimulatedCycles == 0 {
		t.Errorf("status after a run: %+v", st)
	}
}
