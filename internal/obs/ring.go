package obs

// ring is a bounded FIFO that keeps the last values pushed into it: the
// tracer's span tail, the journal's event tail and each sampler series are
// one. A zero-capacity ring keeps nothing. It does no locking; its owner's
// mutex guards it.
type ring[T any] struct {
	buf  []T
	head int // next write slot
	n    int // values held, at most len(buf)
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

// push appends v, overwriting the oldest value once the ring is full.
func (r *ring[T]) push(v T) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	r.n = min(r.n+1, len(r.buf))
}

// all returns the values held, oldest first, in a fresh slice.
func (r *ring[T]) all() []T {
	out := make([]T, 0, r.n)
	if start := r.head - r.n; start < 0 {
		out = append(out, r.buf[len(r.buf)+start:]...)
	}
	return append(out, r.buf[max(r.head-r.n, 0):r.head]...)
}
