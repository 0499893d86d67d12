package stl

import (
	"bytes"
	"testing"

	"repro/internal/snapshot"
)

// TestStreamGroupSnapshotRestoresIntoAnyLane: a group's snapshot is a
// lane snapshot, so it restores into a fresh group and into any lane
// of a wider group built from the same formulas; both then continue
// exactly like the original, and re-encoding reproduces the bytes.
func TestStreamGroupSnapshotRestoresIntoAnyLane(t *testing.T) {
	srcs := append(append([]string{}, groupFormulas...), boundedStateFormula)
	build := func(width int) *BatchStreamGroup {
		g, err := NewBatchStreamGroup(5, width)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range srcs {
			if _, err := g.Add(MustParse(src)); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	orig, err := NewStreamGroup(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		if _, err := orig.Add(MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	sample := func(i int) map[string]float64 {
		return map[string]float64{"x": float64((i*7919)%23) - 10, "y": float64((i*104729)%19) - 9}
	}
	for i := 0; i < 150; i++ {
		if err := orig.Push(sample(i)); err != nil {
			t.Fatal(err)
		}
	}
	enc := snapshot.NewEncoder()
	orig.SnapshotState(enc)
	data := append([]byte(nil), enc.Payload()...)

	restored, err := NewStreamGroup(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range srcs {
		if _, err := restored.Add(MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	if err := restored.RestoreState(snapshot.NewDecoder(data)); err != nil {
		t.Fatal(err)
	}
	wide := build(3)
	if err := wide.RestoreLane(2, snapshot.NewDecoder(data)); err != nil {
		t.Fatal(err)
	}
	again := snapshot.NewEncoder()
	restored.SnapshotState(again)
	lane := snapshot.NewEncoder()
	wide.SnapshotLane(2, lane)
	if !bytes.Equal(again.Payload(), data) || !bytes.Equal(lane.Payload(), data) {
		t.Fatal("re-encoding a restored group or lane changed the bytes")
	}
	if restored.Len() != orig.Len() || wide.LaneLen(2) != orig.Len() {
		t.Fatalf("restored cursors %d/%d, want %d", restored.Len(), wide.LaneLen(2), orig.Len())
	}

	nv := len(wide.Vars())
	vals := make([]float64, nv)
	for i := 150; i < 300; i++ {
		s := sample(i)
		for _, g := range []*StreamGroup{orig, restored} {
			if err := g.Push(s); err != nil {
				t.Fatal(err)
			}
		}
		for v, name := range wide.Vars() {
			vals[v] = s[name]
		}
		if err := wide.PushLanes([]int{2}, vals); err != nil {
			t.Fatal(err)
		}
		for f := range srcs {
			sat, rob := orig.Sat(f), orig.Rob(f)
			if restored.Sat(f) != sat || restored.Rob(f) != rob {
				t.Fatalf("push %d formula %d: restored group (%v, %v), original (%v, %v)",
					i, f, restored.Sat(f), restored.Rob(f), sat, rob)
			}
			if ws, wr := wide.Sats(f)[0], wide.Robs(f)[0]; ws != sat || wr != rob {
				t.Fatalf("push %d formula %d: restored lane (%v, %v), original (%v, %v)", i, f, ws, wr, sat, rob)
			}
		}
	}
}
