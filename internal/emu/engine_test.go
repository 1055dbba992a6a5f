package emu_test

import (
	"strings"
	"testing"

	"nacho/internal/emu"
	"nacho/internal/isa"
	"nacho/internal/systems"
)

func TestParseEngine(t *testing.T) {
	valid := map[string]emu.Engine{
		"":     emu.EngineAuto,
		"auto": emu.EngineAuto,
		"ref":  emu.EngineRef,
		"aot":  emu.EngineAOT,
	}
	for s, want := range valid {
		got, err := emu.ParseEngine(s)
		if err != nil {
			t.Fatalf("ParseEngine(%q): %v", s, err)
		}
		if got != want {
			t.Fatalf("ParseEngine(%q) = %q, want %q", s, got, want)
		}
	}
	// "fast" named the batched engine, since removed: it must be rejected
	// by name rather than silently mapped to another engine.
	for _, s := range []string{"bogus", "AOT", "reference", "jit", "fast"} {
		_, err := emu.ParseEngine(s)
		if err == nil {
			t.Fatalf("ParseEngine(%q) accepted", s)
		}
		if !strings.Contains(err.Error(), s) {
			t.Fatalf("ParseEngine(%q) error %q does not name the bad value", s, err)
		}
		if !strings.Contains(err.Error(), emu.Engines) {
			t.Fatalf("ParseEngine(%q) error %q does not list the valid spellings", s, err)
		}
	}
}

func TestResolveEngine(t *testing.T) {
	cases := []struct {
		name string
		cfg  emu.Config
		want emu.Engine
	}{
		{"auto picks aot", emu.Config{}, emu.EngineAOT},
		{"explicit ref", emu.Config{Engine: emu.EngineRef}, emu.EngineRef},
		// The removed batched engine's spelling is an unknown value now.
		{"explicit fast", emu.Config{Engine: emu.Engine("fast")}, emu.EngineRef},
		{"explicit aot", emu.Config{Engine: emu.EngineAOT}, emu.EngineAOT},
		{"unknown value degrades to ref", emu.Config{Engine: emu.Engine("bogus")}, emu.EngineRef},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.cfg.ResolveEngine(); got != tc.want {
				t.Fatalf("ResolveEngine() = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestNoDecodeInHotLoop pins the pre-decode contract: isa.Decode runs only at
// DecodeText time, never per executed instruction, on any engine. The program
// retires far more instructions than its static instruction count, so a
// per-step decode would show up as thousands of extra calls.
func TestNoDecodeInHotLoop(t *testing.T) {
	src := `
_start:
	li   a0, 0
	li   a1, 2000
loop:
	addi a0, a0, 1
	lw   t0, 0(sp)
	sw   t0, 0(sp)
	bne  a0, a1, loop
` + epilogue
	for _, engine := range []emu.Engine{emu.EngineRef, emu.EngineAOT} {
		t.Run(string(engine), func(t *testing.T) {
			// run's assemble+DecodeText stage legitimately decodes each text
			// word once; everything after the baseline snapshot inside the
			// machine run must not decode at all. The decode happens inside
			// run(), so bracket the whole call and bound the growth by the
			// static word count rather than demanding zero.
			before := isa.DecodeCalls()
			res, err := run(t, src, systems.KindVolatile, emu.Config{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.Instructions < 8000 {
				t.Fatalf("workload too small to detect per-step decoding: %d instructions", res.Counters.Instructions)
			}
			decodes := isa.DecodeCalls() - before
			if decodes > 64 {
				t.Fatalf("%d isa.Decode calls for a %d-instruction run: hot loop is decoding (image decode alone must stay under the static word count)", decodes, res.Counters.Instructions)
			}
		})
	}
}
