package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// Host time is attributed to the program's modules with a CPU profile of the
// traced passes. The benchmark labels its own calls with runtime/pprof.Do;
// goroutines the program starts inherit the labels. The profile is printed
// with `go tool pprof -traces`, which ships with the toolchain, and each
// sample is folded into one bucket by its leaf frame's package.

// modules are the program's layers that get a cpu_share metric.
var modules = []string{
	"emu", "compile", "asm", "cache", "core", "systems", "checkpoint",
	"verify", "track", "mem", "snapshot", "fuzzer", "harness",
}

// Buckets besides the modules.
const (
	bucketMap   = "runtime.map" // Go map operations
	bucketGC    = "runtime.gc"  // garbage collection
	bucketOther = "other"       // everything else: other packages, scheduler, syscalls
)

// Label keys and values the benchmark sets.
const (
	labelPhase = "phase"
	phaseCheck = "check" // the benchmark's own output checks, excluded from shares
)

// withLabels runs f under pprof labels when traced, and plainly otherwise.
func withLabels(traced bool, f func(), kv ...string) {
	if !traced {
		f()
		return
	}
	pprof.Do(context.Background(), pprof.Labels(kv...), func(context.Context) { f() })
}

// sample is one stack of a CPU profile.
type sample struct {
	value  time.Duration
	labels map[string]string
	stack  []string // function names, leaf first
}

// startProfile starts the process CPU profile into path.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// readProfiles prints the profiles at paths, merged, with
// `go tool pprof -traces` and parses the stacks.
func readProfiles(paths []string) ([]sample, error) {
	var out, stderr bytes.Buffer
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...)
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(&out)
}

// parseTraces parses `go tool pprof -traces` output: a header, then one
// block per sample, separated by lines of dashes. A block holds
// "key:  value" label lines, then the sample value and leaf function on one
// line, then one caller per line.
func parseTraces(r io.Reader) ([]sample, error) {
	var (
		out     []sample
		cur     *sample
		inBlock bool
	)
	flush := func() {
		if cur != nil && len(cur.stack) > 0 {
			out = append(out, *cur)
		}
		cur = nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			cur = &sample{labels: map[string]string{}}
			continue
		}
		if !inBlock {
			continue // header: File, Type, Time, Duration
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(cur.stack) == 0 && strings.HasSuffix(fields[0], ":") {
			cur.labels[strings.TrimSuffix(fields[0], ":")] = strings.Join(fields[1:], " ")
			continue
		}
		if len(cur.stack) == 0 {
			v, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			cur.value = v
			cur.stack = append(cur.stack, fields[1])
			continue
		}
		cur.stack = append(cur.stack, fields[0])
	}
	flush()
	return out, sc.Err()
}

// packageOf returns the import path of a function name as pprof prints it,
// e.g. "nacho/internal/emu" for "nacho/internal/emu.(*Machine).Run".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other import paths
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isMapFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.map") || packageOf(fn) == "internal/runtime/maps"
}

func isGCFrame(fn string) bool {
	for _, p := range []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
		"runtime.sweepone", "runtime.(*sweepLocked).sweep", "runtime.(*mspan).sweep",
		"runtime.wbBufFlush", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// bucketOf folds one stack into a bucket. The leaf frame decides: a frame of
// the program's module names that module; Go map and GC frames get their own
// buckets. Other frames (a memmove, an allocation, a sort) are charged to
// the nearest caller that decides, so a module's share includes the runtime
// work it asks for, except map operations and garbage collection.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		switch pkg := packageOf(fn); {
		case isGCFrame(fn):
			return bucketGC
		case isMapFrame(fn):
			return bucketMap
		case strings.HasPrefix(pkg, "nacho/internal/"):
			mod := strings.TrimPrefix(pkg, "nacho/internal/")
			for _, m := range modules {
				if m == mod {
					return m
				}
			}
			return bucketOther
		case pkg == "nacho" || pkg == "main":
			return bucketOther
		}
	}
	return bucketOther
}

// shares folds samples into buckets and returns each bucket's share of the
// total, leaving out samples of the benchmark's own output checks.
func shares(samples []sample) map[string]float64 {
	byBucket := map[string]time.Duration{}
	var total time.Duration
	for _, s := range samples {
		if s.labels[labelPhase] == phaseCheck {
			continue
		}
		byBucket[bucketOf(s.stack)] += s.value
		total += s.value
	}
	out := map[string]float64{}
	for b, v := range byBucket {
		out[b] = float64(v) / float64(total)
	}
	return out
}

// shareUnder returns the share of samples (outside output checks) whose stack
// contains a frame starting with fn.
func shareUnder(samples []sample, fn string) float64 {
	var in, total time.Duration
	for _, s := range samples {
		if s.labels[labelPhase] == phaseCheck {
			continue
		}
		total += s.value
		for _, f := range s.stack {
			if strings.HasPrefix(f, fn) {
				in += s.value
				break
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(in) / float64(total)
}
