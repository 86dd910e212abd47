// Package freelist keeps bounded, process-wide free lists of slices, so the
// arrays a finished simulation sized to its organization back the next
// simulation instead of becoming garbage.
//
// A List is a plain mutex-guarded stack, not a sync.Pool: every garbage
// collection empties a sync.Pool, so a benchmark or a sweep that collects
// between passes would rebuild every array on every pass. A List holds at
// most runtime.GOMAXPROCS(0) slices, one per simulation that can run at
// once, and when it is full it keeps the largest ones. The memory a List
// retains is therefore bounded by GOMAXPROCS times the largest array it has
// been handed.
package freelist

import (
	"runtime"
	"sync"
)

// List is a bounded free list of []E. The zero value is an empty list,
// ready to use.
type List[E any] struct {
	mu   sync.Mutex
	free [][]E
}

// Get returns a slice of length n: the retained slice with the smallest
// capacity that holds n, resliced to n, or a new zeroed slice when no
// retained one is large enough. A reused slice keeps, up to its capacity,
// whatever its last user left in it, so the caller reinitializes every
// element it reads.
func (l *List[E]) Get(n int) []E {
	l.mu.Lock()
	best := -1
	for i, s := range l.free {
		if cap(s) >= n && (best < 0 || cap(s) < cap(l.free[best])) {
			best = i
		}
	}
	if best < 0 {
		l.mu.Unlock()
		return make([]E, n)
	}
	s := l.free[best]
	last := len(l.free) - 1
	l.free[best] = l.free[last]
	l.free[last] = nil
	l.free = l.free[:last]
	l.mu.Unlock()
	return s[:n]
}

// Put hands s, up to its capacity, back for reuse; the caller must not touch
// it afterwards. Clear first whatever in s points at memory that should not
// outlive its last user: a retained slice keeps its contents. A full list
// keeps the larger of s and its smallest slice.
func (l *List[E]) Put(s []E) {
	if cap(s) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < runtime.GOMAXPROCS(0) {
		l.free = append(l.free, s)
		return
	}
	small := 0
	for i := range l.free {
		if cap(l.free[i]) < cap(l.free[small]) {
			small = i
		}
	}
	if cap(s) > cap(l.free[small]) {
		l.free[small] = s
	}
}
