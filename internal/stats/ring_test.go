package stats

import (
	"reflect"
	"testing"
)

func TestRingOrdersAndBounds(t *testing.T) {
	r := NewRing[int](3)
	if r.Len() != 0 || len(r.Recent(0)) != 0 || len(r.Oldest()) != 0 {
		t.Fatal("new ring not empty")
	}
	r.Push(1)
	r.Push(2)
	if got := r.Recent(0); !reflect.DeepEqual(got, []int{2, 1}) {
		t.Fatalf("Recent(0) = %v, want [2 1]", got)
	}
	if got := r.Oldest(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("Oldest = %v, want [1 2]", got)
	}
	for v := 3; v <= 5; v++ {
		r.Push(v)
	}
	if r.Len() != 3 || len(r.buf) != 3 {
		t.Fatalf("Len=%d cap=%d, want 3 and 3", r.Len(), len(r.buf))
	}
	if got := r.Recent(0); !reflect.DeepEqual(got, []int{5, 4, 3}) {
		t.Fatalf("Recent(0) = %v, want [5 4 3]", got)
	}
	if got := r.Recent(2); !reflect.DeepEqual(got, []int{5, 4}) {
		t.Fatalf("Recent(2) = %v, want [5 4]", got)
	}
	if got := r.Recent(10); !reflect.DeepEqual(got, []int{5, 4, 3}) {
		t.Fatalf("Recent(10) = %v, want [5 4 3]", got)
	}
	if got := r.Oldest(); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("Oldest = %v, want [3 4 5]", got)
	}
}

func TestRingPushDoesNotAllocate(t *testing.T) {
	type big struct{ a, b, c, d int64 }
	r := NewRing[big](8)
	if n := testing.AllocsPerRun(100, func() { r.Push(big{a: 1}) }); n != 0 {
		t.Fatalf("Push allocates %.1f times, want 0", n)
	}
}
