package stats

import (
	"reflect"
	"testing"
)

// The ring against the obvious model — a slice that keeps its last size
// elements — at every fill level around the wrap, for every tail length.
func TestRingMatchesSliceModel(t *testing.T) {
	const size = 5
	r := NewRing[int](size)
	if r.Allocated() != 0 || r.Len() != 0 || r.Snapshot() != nil {
		t.Fatalf("an empty ring holds %d slots, %d values, snapshot %v", r.Allocated(), r.Len(), r.Snapshot())
	}
	var model []int
	for v := 1; v <= 3*size+1; v++ {
		r.Put(v)
		if model = append(model, v); len(model) > size {
			model = model[1:]
		}
		if r.Allocated() != size || r.Len() != len(model) {
			t.Fatalf("after %d puts: %d slots, %d held; want %d and %d", v, r.Allocated(), r.Len(), size, len(model))
		}
		for k := 0; k <= size+1; k++ {
			want := model[max(0, len(model)-k):]
			if got := r.Tail(k); !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
				t.Fatalf("after %d puts Tail(%d) = %v, want %v", v, k, got, want)
			}
		}
		if got := r.Snapshot(); !reflect.DeepEqual(got, model) {
			t.Fatalf("after %d puts Snapshot = %v, want %v", v, got, model)
		}
	}
	r.Snapshot()[0] = -1 // a copy: the ring must not see it
	if r.Tail(size)[0] == -1 {
		t.Fatal("Snapshot aliases the ring's slots")
	}
	r.Reset()
	if r.Len() != 0 || r.Allocated() != size || len(r.Snapshot()) != 0 {
		t.Fatal("Reset must empty the ring and keep its slots")
	}
	r.Put(42)
	if got := r.Snapshot(); !reflect.DeepEqual(got, []int{42}) {
		t.Fatalf("after Reset and one Put: %v", got)
	}
	if one := NewRing[int](0); one.size != 1 {
		t.Fatalf("NewRing(0) holds %d values, want the minimum of 1", one.size)
	}
}
