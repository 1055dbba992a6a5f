package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	list := []span{
		{name: "pass", parent: -1, start: 0, end: 100 * ms},
		// Two sequential children.
		{name: "a", parent: 0, start: 10 * ms, end: 30 * ms},
		{name: "b", parent: 0, start: 40 * ms, end: 50 * ms},
		// A child of a child: counted against "a", not against "pass".
		{name: "a1", parent: 1, start: 12 * ms, end: 20 * ms},
		// Overlapping children (fan-out): their union, 60..90, counts once.
		{name: "c", parent: 0, start: 60 * ms, end: 80 * ms},
		{name: "d", parent: 0, start: 70 * ms, end: 90 * ms},
		// A child running past its parent's end is clipped to it.
		{name: "e", parent: 0, start: 95 * ms, end: 120 * ms},
		// Never closed: no duration, and it covers nothing.
		{name: "open", parent: 0, start: 91 * ms, end: -1},
	}
	got := selfTimes(list)
	want := []time.Duration{
		100*ms - 20*ms - 10*ms - 30*ms - 5*ms,
		20*ms - 8*ms,
		10 * ms,
		8 * ms,
		20 * ms,
		20 * ms,
		25 * ms,
		0,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", list[i].name, got[i], want[i])
		}
	}
}

func TestSpansRecorder(t *testing.T) {
	var none *spans
	if id := none.begin("x", -1); id != -1 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	none.end(-1)

	s := newSpans()
	p := s.begin("pass", -1)
	c := s.begin("child", p)
	s.end(c)
	s.end(p)
	d := durationsMs(s.snapshot())
	if len(d["pass"]) != 1 || len(d["child"]) != 1 || d["child"][0] > d["pass"][0] {
		t.Fatalf("span durations: %v", d)
	}
}
