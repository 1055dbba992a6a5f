package main

import (
	"bytes"
	"fmt"

	"nacho/internal/emu"
	"nacho/internal/harness"
	"nacho/internal/mem"
	"nacho/internal/metrics"
	"nacho/internal/program"
	"nacho/internal/systems"
	"nacho/internal/telemetry"
	"nacho/internal/verify"
)

// simCounts sums simulated counters. A simulator-only change must leave
// every one of them unchanged.
type simCounts struct {
	accesses, hits, checkpoints, lines, nvmBytes, violations uint64
}

func (s *simCounts) add(c metrics.Counters) {
	s.accesses += c.CacheHits + c.CacheMisses
	s.hits += c.CacheHits
	s.checkpoints += c.Checkpoints
	s.lines += c.CheckpointLines
	s.nvmBytes += c.NVMReadBytes + c.NVMWriteBytes
}

func (s *simCounts) report(m metricSet) {
	m.set("cache.accesses", float64(s.accesses), "count")
	if s.accesses > 0 {
		m.set("cache.hit_rate", float64(s.hits)/float64(s.accesses), "fraction")
	}
	m.set("core.checkpoints", float64(s.checkpoints), "count")
	m.set("checkpoint.lines", float64(s.lines), "count")
	m.set("systems.nvm_bytes", float64(s.nvmBytes), "bytes")
	m.set("verify.violations", float64(s.violations), "count")
}

// verifiedRun runs img on kind failure-free with a shadow-memory and WAR
// verifier attached, adds its counters to s, and fails on a run error.
func (s *simCounts) verifiedRun(img *program.Image, kind systems.Kind, cfg harness.RunConfig) error {
	space := mem.NewSpace()
	for _, seg := range img.Segments {
		space.LoadBytes(seg.Addr, seg.Data)
	}
	ver := verify.New(space, systems.VerifyConfigFor(kind))
	cfg.Verify, cfg.Probe = false, ver
	res, err := harness.RunImage(img, kind, cfg, false)
	if err != nil {
		return fmt.Errorf("%s on %s: %w", img.Program.Name, kind, err)
	}
	s.add(res.Counters)
	s.violations += uint64(len(ver.Violations()))
	return nil
}

// ledgerStats summarizes the executed runs of a run ledger: runs per engine,
// per-run wall times, and simulated instructions.
type ledgerStats struct {
	runs         map[string]int
	wallMs       []float64
	wallMicros   int64
	instructions uint64
}

// ledgerTap records the run ledger of traced passes in memory.
type ledgerTap struct {
	buf    bytes.Buffer
	ledger *telemetry.Ledger
}

// install makes the tap the process's run ledger and returns the function
// that removes it again.
func (l *ledgerTap) install() (remove func()) {
	if l.ledger == nil {
		l.ledger = telemetry.NewLedger(&l.buf)
	}
	prev := telemetry.SetActiveLedger(l.ledger)
	return func() { telemetry.SetActiveLedger(prev) }
}

// stats reads back every executed run (cache and store hits are not runs).
func (l *ledgerTap) stats() (ledgerStats, error) {
	st := ledgerStats{runs: map[string]int{}}
	if l.ledger == nil {
		return st, nil
	}
	if err := l.ledger.Flush(); err != nil {
		return st, err
	}
	recs, _, err := telemetry.ReadLedger(&l.buf)
	if err != nil {
		return st, err
	}
	for _, r := range recs {
		if r.Outcome != "ok" && r.Outcome != "error" {
			continue
		}
		st.runs[r.Engine]++
		st.wallMs = append(st.wallMs, float64(r.WallMicros)/1000)
		st.wallMicros += r.WallMicros
		st.instructions += r.Instructions
	}
	return st, nil
}

// report sets the engine metrics, per traced pass.
func (st ledgerStats) report(m metricSet, passes int) {
	m.set("emu.runs.ref", float64(st.runs[string(emu.EngineRef)])/float64(passes), "count")
	m.set("emu.runs.aot", float64(st.runs[string(emu.EngineAOT)])/float64(passes), "count")
	m.set("emu.instructions", float64(st.instructions)/float64(passes), "count")
	if st.instructions > 0 {
		m.set("emu.ns_per_instr", float64(st.wallMicros)*1000/float64(st.instructions), "ns")
	}
}
