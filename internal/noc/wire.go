package noc

import "snacknoc/internal/sim"

// wire is a unidirectional, latency-carrying channel between two
// components (flits router→router, credits back the other way). The
// writer appends during its Advance phase with an absolute arrival cycle;
// the single owning reader pops ready entries during its Evaluate phase.
// Because Advance at cycle T always schedules arrival at T+1 or later,
// readers never observe same-cycle writes, keeping the two-phase update
// deterministic regardless of component ordering.
//
// When the reader is a quiescence-capable component, waker holds its
// engine handle: every push wakes the reader no later than the entry's
// arrival cycle, which is what lets routers and NIs sleep safely.
type wire[T any] struct {
	q     []wireEntry[T]
	waker *sim.Handle
}

type wireEntry[T any] struct {
	v      T
	arrive int64
}

// push schedules v to become visible to the reader at the given cycle.
// Pushes must be issued in non-decreasing arrival order, which holds
// naturally for constant-latency links.
func (w *wire[T]) push(v T, arrive int64) {
	w.q = append(w.q, wireEntry[T]{v: v, arrive: arrive})
	w.waker.WakeAt(arrive)
}

// popReady removes and returns, in order, all entries with arrive <= now.
func (w *wire[T]) popReady(now int64) []T {
	n := 0
	for n < len(w.q) && w.q[n].arrive <= now {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := 0; i < n; i++ {
		out[i] = w.q[i].v
	}
	w.q = append(w.q[:0], w.q[n:]...)
	return out
}

// drainReady invokes fn, in order, for every entry with arrive <= now and
// removes them. Unlike popReady it performs no allocation, which matters
// on the per-cycle router paths.
func (w *wire[T]) drainReady(now int64, fn func(T)) {
	if len(w.q) == 0 || w.q[0].arrive > now {
		return
	}
	n := 0
	for n < len(w.q) && w.q[n].arrive <= now {
		fn(w.q[n].v)
		n++
	}
	w.q = append(w.q[:0], w.q[n:]...)
}

// pending returns the number of queued entries (ready or not).
func (w *wire[T]) pending() int { return len(w.q) }

// creditMsg returns one buffer slot of an input VC to the sender upstream.
type creditMsg struct {
	vnet int
	vc   int
}
