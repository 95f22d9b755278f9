package main

import "testing"

// An operation root [0,100) with a decode child [10,30), an apply
// child [30,90) holding two metric points [40,50) and [45,60) that
// overlap, and a point [85,95) that runs past its parent's end.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{op: 1, id: 0, parent: -1, layer: layerOp, start: 0, end: 100},
		{op: 1, id: 1, parent: 0, layer: layerDecode, start: 10, end: 30},
		{op: 1, id: 2, parent: 0, layer: layerApply, start: 30, end: 90},
		{op: 1, id: 3, parent: 2, layer: layerPoint, start: 40, end: 50},
		{op: 1, id: 4, parent: 2, layer: layerPoint, start: 45, end: 60},
		{op: 1, id: 5, parent: 2, layer: layerPoint, start: 85, end: 95},
		// A second operation reusing the same span ids must not be
		// mistaken for the first one's children.
		{op: 2, id: 0, parent: -1, layer: layerOp, start: 0, end: 10},
		{op: 2, id: 1, parent: 0, layer: layerDetect, start: 2, end: 5},
	}
	lt := selfTimes(spans)
	want := map[layer]layerTime{
		layerOp:     {spans: 2, total: 110, self: 100 - 80 + 10 - 3},
		layerDecode: {spans: 1, total: 20, self: 20},
		// apply: 60 long; the points cover [40,60) and [85,90) of it.
		layerApply:  {spans: 1, total: 60, self: 60 - 20 - 5},
		layerPoint:  {spans: 3, total: 35, self: 35},
		layerDetect: {spans: 1, total: 3, self: 3},
	}
	for l := layer(0); l < numLayers; l++ {
		if lt[l] != want[l] {
			t.Errorf("%s: got %+v, want %+v", l, lt[l], want[l])
		}
	}
}

func TestCovered(t *testing.T) {
	kids := []span{{start: 5, end: 8}, {start: 0, end: 3}, {start: 2, end: 4}, {start: 20, end: 30}}
	if got := covered(1, 25, kids); got != (4-1)+(8-5)+(25-20) {
		t.Errorf("covered = %d, want 11", got)
	}
	if got := covered(10, 15, kids); got != 0 {
		t.Errorf("covered of an uncovered interval = %d", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *opTracer
	id := tr.begin(layerApply, -1)
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
}
