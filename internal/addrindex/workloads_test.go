package addrindex_test

import (
	"testing"

	"heapmd/internal/addrindex"
	"heapmd/internal/event"
	"heapmd/internal/workloads"
)

// hugeWatch records the largest allocation of a run and counts the
// allocations the table would put on its huge side list.
type hugeWatch struct {
	maxSize uint64
	huge    int
}

func (h *hugeWatch) Emit(e event.Event) {
	var base uint64
	switch e.Type {
	case event.Alloc:
		base = e.Addr
	case event.Realloc:
		base = e.Value
	default:
		return
	}
	h.maxSize = max(h.maxSize, e.Size)
	if addrindex.OnHugeList(base, e.Size) {
		h.huge++
	}
}

// TestWorkloadsStayOffHugeList: the huge list is a linear fallback for
// damaged traces; every allocation of the bundled programs, in every
// input size class, must be registered per line.
func TestWorkloadsStayOffHugeList(t *testing.T) {
	for _, w := range workloads.All() {
		h := &hugeWatch{}
		for _, in := range w.Inputs(4) { // one input per size class
			if _, _, err := workloads.RunLogged(w, in, workloads.RunConfig{ExtraSinks: []event.Sink{h}}); err != nil {
				t.Fatalf("%s/%s: %v", w.Name(), in.Name, err)
			}
		}
		t.Logf("%s: largest allocation %d bytes", w.Name(), h.maxSize)
		if h.huge != 0 {
			t.Errorf("%s: %d allocations on the huge list", w.Name(), h.huge)
		}
	}
}
