package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRecorderDisabledKeepsNothing(t *testing.T) {
	r := newRecorder(false)
	r.request()
	id := r.begin("server.translate", -1)
	r.child("match.stage", id, time.Millisecond)
	if d := r.end(id); d != 0 || id != -1 || len(r.spans) != 0 {
		t.Errorf("disabled recorder kept spans: id %d, duration %v, %d spans", id, d, len(r.spans))
	}
}

func TestRecorderSpans(t *testing.T) {
	r := newRecorder(true)
	r.request()
	root := r.begin("qilabel.integrate", -1)
	time.Sleep(2 * time.Millisecond)
	r.child("match.stage", root, time.Millisecond)
	r.end(root)
	r.request()
	other := r.begin("server.translate", -1)
	r.end(other)

	if len(r.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(r.spans))
	}
	s, c := r.spans[root], r.spans[1]
	if c.Parent != root || c.Req != s.Req || c.Of != -1 {
		t.Errorf("child %+v not linked to its parent %+v", c, s)
	}
	if c.Start < s.Start || c.End > s.End || c.End-c.Start != time.Millisecond {
		t.Errorf("child %+v not inside parent %+v", c, s)
	}
	if r.spans[other].Req == s.Req {
		t.Errorf("second request shares the first one's ID")
	}
	if got := r.durations("match.stage"); len(got) != 1 || got[0] != time.Millisecond {
		t.Errorf("durations(match.stage) = %v", got)
	}
}

func TestSelfByLayer(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "qilabel.integrate", Start: 0, End: ms(10), Parent: -1, Of: -1},
		{Name: "match.stage", Start: ms(1), End: ms(4), Parent: 0, Of: -1},
		{Name: "naming.stage", Start: ms(5), End: ms(9), Parent: 0, Of: -1},
		// A handler span and two calls decomposed out of it, made after
		// it on the same inputs.
		{Name: "server.integrate_hit", Start: ms(20), End: ms(30), Parent: -1, Of: -1},
		{Name: "qilabel.builtin_domain", Start: ms(31), End: ms(33), Parent: -1, Of: 3},
		{Name: "qilabel.cachekey", Start: ms(33), End: ms(34), Parent: -1, Of: 3},
	}
	got := selfByLayer(spans)
	want := map[string]time.Duration{
		"qilabel": ms(3) + ms(2) + ms(1), // integrate self + builtin_domain + cachekey
		"match":   ms(3),
		"naming":  ms(4),
		"server":  ms(7), // 10 minus the 3 decomposed out
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}

func TestRecorderWrite(t *testing.T) {
	r := newRecorder(true)
	r.request()
	id := r.begin("server.translate", -1)
	r.end(id)
	tid := r.beginOf("translate.translate", id)
	r.end(tid)
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		SelfUs map[string]float64 `json:"self_us"`
		Spans  []span             `json:"spans"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Spans) != 2 || out.Spans[1].Of != 0 || out.Spans[1].Name != "translate.translate" {
		t.Errorf("written spans %+v", out.Spans)
	}
	if _, ok := out.SelfUs["server"]; !ok {
		t.Errorf("no server self time in %v", out.SelfUs)
	}
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"qilabel.integrate":        "qilabel",
		"server.self_us.integrate": "server",
		"match":                    "match",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}
