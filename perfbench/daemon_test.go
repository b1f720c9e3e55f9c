package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsSeededAndSized(t *testing.T) {
	ws := workingSet()
	a, b := buildSchedule(7, 30, ws), buildSchedule(7, 30, ws)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, buildSchedule(8, 30, ws)) {
		t.Fatal("different seeds gave the same schedule")
	}
	inWS := map[jobSpec]bool{}
	for _, j := range ws {
		inWS[j] = true
	}
	counts := map[int]int{}
	fresh := map[jobSpec]bool{}
	for i, ev := range a {
		counts[ev.kind]++
		if i > 0 && ev.at < a[i-1].at {
			t.Fatal("schedule not in time order")
		}
		if ev.at < 0 || ev.at >= 30*time.Second {
			t.Fatalf("event at %v outside the run", ev.at)
		}
		switch ev.kind {
		case evHit:
			if !inWS[ev.spec] {
				t.Fatalf("hit on %s outside the working set", ev.spec)
			}
		case evFresh:
			if fresh[ev.spec] || inWS[ev.spec] {
				t.Fatalf("fresh config %s repeats", ev.spec)
			}
			fresh[ev.spec] = true
		}
	}
	if counts[evHit] != 15000 || counts[evFresh] != 60+defectJobs || counts[evList] != 30 || counts[evMetrics] != 30 {
		t.Errorf("event counts %v", counts)
	}
	if n := counts[evInvalid]; n < 140 || n > 160 {
		t.Errorf("%d invalid submissions, want about 1%% of hits", n)
	}
}
