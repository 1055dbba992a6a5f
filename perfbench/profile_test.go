package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// syntheticTraces mimics `go tool pprof -traces` output.
const syntheticTraces = `File: perfbench
Type: cpu
Time: 2026-10-17 05:13:41 UTC
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
     phase:  op
  workload:  paper-regen
      40ms   nacho/internal/emu.(*Machine).runSliceRef
             nacho/internal/emu.(*Machine).Run
             nacho/internal/harness.RunImageSys
-----------+-------------------------------------------------------
     phase:  op
      10ms   runtime.memhash64
             runtime.mapaccess2_fast32
             nacho/internal/track.(*Tracker).Touch
             nacho/internal/emu.(*Machine).Run
-----------+-------------------------------------------------------
     phase:  op
      10ms   internal/runtime/maps.(*Map).getWithKeySmall (inline)
             nacho/internal/mem.(*Space).page
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     phase:  op
      10ms   runtime.memmove
             nacho/internal/mem.(*Space).Fork
             nacho/internal/snapshot.Explore
-----------+-------------------------------------------------------
     phase:  op
      10ms   slices.SortFunc[go.shape.struct { nacho/internal/x.y }]
             nacho/internal/harness.regenerate
-----------+-------------------------------------------------------
     phase:  op
      5ms   nacho/internal/program.XorShift32
             nacho/internal/fuzzer.(*Prog).Render
-----------+-------------------------------------------------------
     phase:  check
      50ms   crypto/sha256.block
             main.checkReport
-----------+-------------------------------------------------------
      5ms   runtime.futex
             runtime.findRunnable
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	samples, err := parseTraces(strings.NewReader(syntheticTraces))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 9 {
		t.Fatalf("parsed %d samples, want 9", len(samples))
	}
	first := samples[0]
	if first.value != 40*time.Millisecond || first.labels["workload"] != "paper-regen" ||
		first.labels["phase"] != "op" || len(first.stack) != 3 ||
		first.stack[0] != "nacho/internal/emu.(*Machine).runSliceRef" {
		t.Fatalf("first sample: %+v", first)
	}
	if got := samples[2].stack[0]; got != "internal/runtime/maps.(*Map).getWithKeySmall" {
		t.Fatalf("inline marker kept in frame: %q", got)
	}
	if _, err := parseTraces(strings.NewReader("-----------+---\n  bogus   frame\n")); err == nil {
		t.Fatal("malformed sample line accepted")
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"nacho/internal/emu.(*Machine).runSliceRef"}, "emu"},
		{[]string{"runtime.memhash64", "runtime.mapaccess2_fast32", "nacho/internal/track.(*Tracker).Touch"}, bucketMap},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "nacho/internal/mem.(*Space).page"}, bucketMap},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "nacho/internal/verify.(*Verifier).CPUWrite"}, bucketGC},
		{[]string{"runtime.mallocgc", "nacho/internal/verify.(*Verifier).CPUWrite"}, "verify"},
		{[]string{"runtime.memmove", "nacho/internal/mem.(*Space).Fork"}, "mem"},
		{[]string{"slices.SortFunc[go.shape.struct { nacho/internal/x.y }]", "nacho/internal/harness.regenerate"}, "harness"},
		{[]string{"nacho/internal/program.XorShift32", "nacho/internal/fuzzer.(*Prog).Render"}, bucketOther},
		{[]string{"nacho.RunExperiment"}, bucketOther},
		{[]string{"runtime.futex", "runtime.findRunnable"}, bucketOther},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestSharesFoldSynthetic(t *testing.T) {
	samples, err := parseTraces(strings.NewReader(syntheticTraces))
	if err != nil {
		t.Fatal(err)
	}
	got := shares(samples)
	// 100ms outside the check phase: emu 40, map 20, gc 10, mem 10,
	// harness 10, other 10 (program 5 + scheduler 5).
	want := map[string]float64{
		"emu": 0.4, bucketMap: 0.2, bucketGC: 0.1, "mem": 0.1, "harness": 0.1, bucketOther: 0.1,
	}
	total := 0.0
	for b, v := range got {
		total += v
		if math.Abs(v-want[b]) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", b, v, want[b])
		}
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %v", total)
	}
	if u := shareUnder(samples, "nacho/internal/emu.(*Machine).Run"); math.Abs(u-0.5) > 1e-12 {
		t.Errorf("share under Machine.Run = %v, want 0.5", u)
	}
}
