package main

import (
	"sort"
	"sync"
	"time"
)

// The benchmark records spans from its own code, around each call it makes
// into a layer of the program: an experiment regeneration, a fuzz program's
// generation and oracle check, a crash exploration and its per-outcome
// checks. Spans stay in memory and are read once the traced passes end.

// span is one timed call. parent is the index of the enclosing span, or -1.
type span struct {
	name       string
	parent     int
	start, end time.Duration // offsets from the recorder's epoch
}

// spans records spans from any number of goroutines. A nil *spans records
// nothing, so untraced passes pay only a nil check.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	now := time.Since(s.epoch)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{name: name, parent: parent, start: now, end: -1})
	return len(s.list) - 1
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	now := time.Since(s.epoch)
	s.mu.Lock()
	s.list[id].end = now
	s.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (s *spans) snapshot() []span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]span(nil), s.list...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children (a span whose
// work fans out across goroutines) are counted once, and child time outside
// the parent's interval is ignored. Spans never closed have no duration.
func selfTimes(list []span) []time.Duration {
	children := make([][]int, len(list))
	for i, sp := range list {
		if sp.parent >= 0 && sp.parent < len(list) {
			children[sp.parent] = append(children[sp.parent], i)
		}
	}
	out := make([]time.Duration, len(list))
	for i, sp := range list {
		if sp.end < sp.start {
			continue
		}
		var ivs [][2]time.Duration
		for _, c := range children[i] {
			lo, hi := max(list[c].start, sp.start), min(list[c].end, sp.end)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		out[i] = sp.end - sp.start - covered(ivs)
	}
	return out
}

// covered returns the total length of the union of the intervals.
func covered(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total time.Duration
	curLo, curHi := time.Duration(0), time.Duration(-1)
	for _, iv := range ivs {
		if iv[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = iv[0], iv[1]
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// durationsMs returns the durations, in milliseconds, of the closed spans of
// each name.
func durationsMs(list []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, sp := range list {
		if sp.end >= sp.start {
			out[sp.name] = append(out[sp.name], ms(sp.end-sp.start))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
