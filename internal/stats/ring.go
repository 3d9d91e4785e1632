package stats

// Ring is a fixed-capacity buffer of the most recent values: a Push past
// capacity overwrites the oldest. It is not synchronized; its owner guards
// it with its own lock. Push copies into preallocated storage and never
// allocates.
type Ring[T any] struct {
	buf    []T
	next   int
	filled bool
}

// NewRing returns an empty ring holding at most n values (n >= 1).
func NewRing[T any](n int) Ring[T] { return Ring[T]{buf: make([]T, n)} }

// Push appends v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Push(v T) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.filled = true
	}
}

// Len returns how many values the ring holds.
func (r *Ring[T]) Len() int {
	if r.filled {
		return len(r.buf)
	}
	return r.next
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Recent returns up to n values, newest first. n <= 0 means all of them.
func (r *Ring[T]) Recent(n int) []T {
	size := r.Len()
	if n <= 0 || n > size {
		n = size
	}
	out := make([]T, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Oldest returns every value, oldest first.
func (r *Ring[T]) Oldest() []T {
	size, start := r.Len(), 0
	if r.filled {
		start = r.next
	}
	out := make([]T, 0, size)
	for i := 0; i < size; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}
