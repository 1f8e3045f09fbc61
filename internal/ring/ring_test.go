package ring

import (
	"fmt"
	"testing"
)

func TestRing(t *testing.T) {
	for _, tc := range []struct {
		capacity, adds int
		want           []int // the values held, oldest first
		overwrites     int
	}{
		{capacity: 0, adds: 0, want: nil},
		{capacity: 0, adds: 3, want: []int{3}, overwrites: 2},          // capacity 0 holds 1
		{capacity: -5, adds: 2, want: []int{2}, overwrites: 1},         // and so does a negative one
		{capacity: 4, adds: 3, want: []int{1, 2, 3}},                   // not yet full
		{capacity: 4, adds: 4, want: []int{1, 2, 3, 4}},                // full, not wrapped
		{capacity: 4, adds: 6, want: []int{3, 4, 5, 6}, overwrites: 2}, // oldest mid-buffer
		{capacity: 4, adds: 8, want: []int{5, 6, 7, 8}, overwrites: 4}, // wrapped back to the start
	} {
		t.Run(fmt.Sprintf("cap%d_adds%d", tc.capacity, tc.adds), func(t *testing.T) {
			r := New[int](tc.capacity)
			overwrites := 0
			for v := 1; v <= tc.adds; v++ {
				if r.Add(v) {
					overwrites++
					if v <= max(tc.capacity, 1) {
						t.Errorf("Add(%d) overwrote before the ring was full", v)
					}
				}
			}
			if overwrites != tc.overwrites {
				t.Errorf("%d Adds overwrote, want %d", overwrites, tc.overwrites)
			}
			if r.Len() != len(tc.want) {
				t.Fatalf("Len = %d, want %d", r.Len(), len(tc.want))
			}
			for i, w := range tc.want {
				if got := *r.At(i); got != w {
					t.Errorf("At(%d) = %d, want %d", i, got, w)
				}
			}
			if got := r.Append(nil); fmt.Sprint(got) != fmt.Sprint(tc.want) || (got == nil) != (tc.want == nil) {
				t.Errorf("Append(nil) = %#v, want %#v", got, tc.want)
			}
			if got := r.Append([]int{-1}); fmt.Sprint(got) != fmt.Sprint(append([]int{-1}, tc.want...)) {
				t.Errorf("Append([-1]) = %v, want -1 then %v", got, tc.want)
			}
		})
	}
}

// At returns a pointer into the ring: an owner updates a held value in
// place (the audit log attaches an outcome to a retained record).
func TestRingAtUpdatesInPlace(t *testing.T) {
	r := New[int](2)
	r.Add(1)
	r.Add(2)
	r.Add(3)
	*r.At(0) = 20
	if got := r.Append(nil); fmt.Sprint(got) != "[20 3]" {
		t.Fatalf("after *At(0) = 20: %v, want [20 3]", got)
	}
}
