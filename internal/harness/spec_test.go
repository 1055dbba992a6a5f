package harness

import (
	"encoding/json"
	"testing"

	"nacho/internal/power"
	"nacho/internal/systems"
)

// TestSpecRoundTrip: SpecFor → JSON → Resolve → SpecFor reproduces the same
// spec and the same store digest — the property the distributed job service
// rests on (coordinator and worker must agree on every cell's address).
func TestSpecRoundTrip(t *testing.T) {
	p := mustProgram(t, "crc")
	cfg := DefaultRunConfig()
	cfg.Schedule = power.NewUniform(1000, 5000, -42)
	cfg.ForcedCheckpointPeriod = 12345
	cfg.DirtyThreshold = 16

	spec := SpecFor(p, systems.KindNACHO, cfg)
	wire, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back RunSpec
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	rp, rkind, rcfg, err := back.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if rp != p || rkind != systems.KindNACHO {
		t.Fatalf("resolved to %s on %s", rp.Name, rkind)
	}
	if again := SpecFor(rp, rkind, rcfg); again != back {
		t.Fatalf("spec not a fixed point:\n sent %+v\n back %+v", back, again)
	}

	want, err := spec.Digest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("digest changed across the wire: %s vs %s", want, got)
	}
}

func TestSpecResolveRejectsGarbage(t *testing.T) {
	good := SpecFor(mustProgram(t, "crc"), systems.KindNACHO, DefaultRunConfig())
	for name, mutate := range map[string]func(*RunSpec){
		"program":  func(sp *RunSpec) { sp.Program = "no-such-benchmark" },
		"system":   func(sp *RunSpec) { sp.System = "no-such-system" },
		"schedule": func(sp *RunSpec) { sp.Schedule = "warp(9)" },
		"engine":   func(sp *RunSpec) { sp.Engine = "turbo" },
		// The removed batched engine's name must not resolve to anything.
		"removed engine": func(sp *RunSpec) { sp.Engine = "fast" },
		// Uniform bounds that used to panic inside the schedule's RNG.
		"inverted uniform": func(sp *RunSpec) { sp.Schedule = "uniform(100,10,1)" },
		"uniform overflow": func(sp *RunSpec) { sp.Schedule = "uniform(0,18446744073709551615,1)" },
	} {
		sp := good
		mutate(&sp)
		if _, _, _, err := sp.Resolve(); err == nil {
			t.Errorf("bad %s accepted: %+v", name, sp)
		}
	}
}

// TestExperimentSpecsEnumerates: the collect-mode dry pass yields the same
// matrix, in the same order, on every call — and executing a spec satisfies
// a warm-store regeneration of the experiment.
func TestExperimentSpecsEnumerates(t *testing.T) {
	first, err := ExperimentSpecs("fig6", []string{"crc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("fig6 enumerated no cells")
	}
	second, err := ExperimentSpecs("fig6", []string{"crc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("enumeration not stable: %d vs %d cells", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cell %d differs across enumerations", i)
		}
	}
	if _, err := ExperimentSpecs("no-such-exp", nil); err == nil {
		t.Fatal("unknown experiment enumerated")
	}
	// table1 is static: no cells.
	if specs, err := ExperimentSpecs("table1", nil); err != nil || len(specs) != 0 {
		t.Fatalf("table1 specs = %d, %v; want 0, nil", len(specs), err)
	}
}

// TestExecuteSpecFillsStore: executing every enumerated cell populates the
// persistent store so the coordinator's regeneration runs nothing.
func TestExecuteSpecFillsStore(t *testing.T) {
	s := withStore(t)
	specs, err := ExperimentSpecs("fig6", []string{"crc"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		digest, err := ExecuteSpec(sp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sp.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if digest != want {
			t.Fatalf("ExecuteSpec stored under %s, spec digest %s", digest, want)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count(); n != len(specs) {
		t.Fatalf("store holds %d entries after %d cells", n, len(specs))
	}

	before := Status()
	rep, err := RunNamedExperiment("fig6", []string{"crc"})
	if err != nil {
		t.Fatal(err)
	}
	if got := Status().RunsStarted - before.RunsStarted; got != 0 {
		t.Errorf("regeneration after spec execution ran %d simulations, want 0", got)
	}
	if len(rep.Rows) == 0 {
		t.Error("regenerated report is empty")
	}
}
