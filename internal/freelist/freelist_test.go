package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// TestGetReusesBestFit: Get hands out the smallest retained slice that
// holds the request, keeps its contents and removes it from the list.
func TestGetReusesBestFit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var l List[int]
	small, large := make([]int, 8), make([]int, 64)
	small[0], large[0] = 1, 2
	l.Put(large)
	l.Put(small)
	got := l.Get(5)
	if len(got) != 5 || &got[0] != &small[0] || got[0] != 1 {
		t.Fatalf("Get(5) = len %d, first %d; want the 8-slot slice resliced, contents kept", len(got), got[0])
	}
	if got := l.Get(10); &got[0] != &large[0] {
		t.Fatal("Get(10) did not reuse the 64-slot slice")
	}
	if got := l.Get(10); got[0] != 0 || len(got) != 10 || cap(got) != 10 {
		t.Fatalf("Get on an empty list = len %d cap %d first %d, want a new zeroed slice", len(got), cap(got), got[0])
	}
}

// TestPutKeepsLargestUpToGOMAXPROCS: the list never holds more than
// GOMAXPROCS slices, and a full list keeps the largest it was handed.
func TestPutKeepsLargestUpToGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var l List[byte]
	for _, n := range []int{4, 16, 8, 32, 2} {
		l.Put(make([]byte, n))
	}
	l.Put(nil) // nothing to keep
	if len(l.free) != 2 {
		t.Fatalf("list holds %d slices, want GOMAXPROCS = 2", len(l.free))
	}
	if a, b := cap(l.Get(0)), cap(l.Get(0)); a != 16 || b != 32 {
		t.Fatalf("retained capacities %d, %d; want 16 and 32", a, b)
	}
}

// TestConcurrentGetPut: concurrent users never receive the same slice.
func TestConcurrentGetPut(t *testing.T) {
	var l List[int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s := l.Get(16)
				for j := range s {
					s[j] = g
				}
				for j := range s {
					if s[j] != g {
						t.Errorf("slice shared between users")
						return
					}
				}
				l.Put(s)
			}
		}(g)
	}
	wg.Wait()
}
