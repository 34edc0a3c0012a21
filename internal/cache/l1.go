package cache

import (
	"fmt"

	"snacknoc/internal/attrib"
	"snacknoc/internal/noc"
	"snacknoc/internal/sim"
	"snacknoc/internal/stats"
)

// l1MSHRSets is the number of MSHR hash chains; a power of two so the
// set index is a mask. Outstanding misses per L1 are bounded by the
// core's access window, so chains stay short.
const l1MSHRSets = 64

// mshrEntry tracks one outstanding L1 miss. Entries live in a flat slab
// chained per set (block & mask) with a free list — the miss path and
// the fill path never touch a map.
type mshrEntry struct {
	block   uint64
	write   bool
	waiters []func(cycle int64)
	// retry holds conflicting accesses (e.g. a write arriving while a
	// read miss is outstanding) re-issued once the fill completes.
	retry []retryReq
	next  int32
}

type retryReq struct {
	write bool
	done  func(cycle int64)
}

// L1 is a private per-core cache controller. The core calls Access; the
// controller resolves hits locally after L1HitLat cycles and misses via
// the block's home L2 bank over the NoC.
type L1 struct {
	sys   *System
	node  int
	eng   *sim.Engine // the System's engine, cached for the event paths
	cache *Cache
	pool  *msgPool

	mshrHead [l1MSHRSets]int32 // per-set chain heads, -1 when empty
	mshrSlab []mshrEntry
	mshrFree int32 // slab free-list head, -1 when empty
	mshrN    int

	// fill scratch: waiters and retries are copied here before their
	// MSHR is released, so callbacks that recursively Access (and
	// allocate fresh MSHRs) cannot invalidate the iteration.
	waitScratch  []func(cycle int64)
	retryScratch []retryReq

	hits     stats.Counter
	misses   stats.Counter
	latSum   int64
	latCount int64

	// at holds event-driven attribution (MSHR volume, occupancy integral,
	// high-water mark); nil disables. attribLast is the cycle the
	// occupancy integral was last advanced to.
	at         *attrib.Counters
	attribLast int64
}

func newL1(sys *System, node int) *L1 {
	l := &L1{
		sys:      sys,
		node:     node,
		eng:      sys.Eng,
		cache:    NewCache(sys.cfg.L1Bytes, sys.cfg.L1Ways),
		pool:     &sys.pool,
		mshrFree: -1,
	}
	for i := range l.mshrHead {
		l.mshrHead[i] = -1
	}
	return l
}

// Cache exposes the tag store for inspection in tests and reports.
func (l *L1) Cache() *Cache { return l.cache }

// Outstanding returns the number of misses in flight.
func (l *L1) Outstanding() int { return l.mshrN }

// AvgMissLatency returns the mean L1-miss service time in cycles.
func (l *L1) AvgMissLatency() float64 {
	if l.latCount == 0 {
		return 0
	}
	return float64(l.latSum) / float64(l.latCount)
}

// Hits returns the L1 hit count.
func (l *L1) Hits() int64 { return l.hits.Value() }

// Misses returns the L1 miss count (upgrades included).
func (l *L1) Misses() int64 { return l.misses.Value() }

// SetAttrib installs (or, with nil, removes) the cycle-attribution
// counters and re-bases the occupancy integral at the current cycle.
func (l *L1) SetAttrib(c *attrib.Counters) {
	l.at = c
	l.attribLast = l.eng.Cycle()
}

// mshrFind returns the slab index of block's MSHR, or -1.
func (l *L1) mshrFind(block uint64) int32 {
	for n := l.mshrHead[block&(l1MSHRSets-1)]; n >= 0; n = l.mshrSlab[n].next {
		if l.mshrSlab[n].block == block {
			return n
		}
	}
	return -1
}

// mshrAlloc allocates an MSHR for block off the free list. The returned
// pointer is invalidated by the next mshrAlloc.
func (l *L1) mshrAlloc(block uint64, write bool) *mshrEntry {
	var n int32
	if l.mshrFree >= 0 {
		n = l.mshrFree
		l.mshrFree = l.mshrSlab[n].next
	} else {
		l.mshrSlab = append(l.mshrSlab, mshrEntry{})
		n = int32(len(l.mshrSlab) - 1)
	}
	e := &l.mshrSlab[n]
	set := block & (l1MSHRSets - 1)
	e.block, e.write, e.next = block, write, l.mshrHead[set]
	l.mshrHead[set] = n
	if l.at != nil {
		l.attribTick()
		l.at.Inc(attrib.CacheMSHRAlloc)
		l.at.Max(attrib.CacheMSHRPeak, int64(l.mshrN+1))
	}
	l.mshrN++
	return e
}

// attribTick advances the occupancy-weighted miss integral to the
// current cycle at the outgoing outstanding-miss count. Called before
// every mshrN change so each interval is weighted by the count that
// held across it.
func (l *L1) attribTick() {
	now := l.eng.Cycle()
	l.at.Add(attrib.CacheMissCycles, (now-l.attribLast)*int64(l.mshrN))
	l.attribLast = now
}

// mshrRelease unlinks block's MSHR from its set chain and recycles the
// slab cell, keeping the waiter/retry slice capacity.
func (l *L1) mshrRelease(block uint64, n int32) {
	set := block & (l1MSHRSets - 1)
	if l.mshrHead[set] == n {
		l.mshrHead[set] = l.mshrSlab[n].next
	} else {
		for p := l.mshrHead[set]; p >= 0; p = l.mshrSlab[p].next {
			if l.mshrSlab[p].next == n {
				l.mshrSlab[p].next = l.mshrSlab[n].next
				break
			}
		}
	}
	e := &l.mshrSlab[n]
	for i := range e.waiters {
		e.waiters[i] = nil
	}
	e.waiters = e.waiters[:0]
	for i := range e.retry {
		e.retry[i] = retryReq{}
	}
	e.retry = e.retry[:0]
	e.block, e.write = 0, false
	e.next = l.mshrFree
	l.mshrFree = n
	if l.at != nil {
		l.attribTick()
	}
	l.mshrN--
}

// Access issues one memory operation for the given cache block. done is
// invoked when the operation completes (hit latency later on a hit, after
// the fill on a miss). It reports whether the access hit.
func (l *L1) Access(block uint64, write bool, done func(cycle int64)) bool {
	if hit, _ := l.cache.Lookup(block, write); hit {
		l.hits.Inc()
		if done != nil {
			l.eng.ScheduleAfter(l.sys.cfg.L1HitLat, func() {
				done(l.eng.Cycle())
			})
		}
		return true
	}
	return l.missPath(block, write, done)
}

// AccessFast is the core-facing fast path: hits complete inline with no
// event scheduling (the pipeline hides L1 hit latency), and onMiss fires
// only when a miss resolves. It reports whether the access hit.
func (l *L1) AccessFast(block uint64, write bool, onMiss func(cycle int64)) bool {
	if hit, _ := l.cache.Lookup(block, write); hit {
		l.hits.Inc()
		return true
	}
	return l.missPath(block, write, onMiss)
}

func (l *L1) missPath(block uint64, write bool, done func(cycle int64)) bool {
	l.misses.Inc()
	start := l.eng.Cycle()
	wrapped := func(cycle int64) {
		l.latSum += cycle - start
		l.latCount++
		if done != nil {
			done(cycle)
		}
	}
	if n := l.mshrFind(block); n >= 0 {
		m := &l.mshrSlab[n]
		if write && !m.write {
			// A write cannot merge into a read miss: it needs exclusive
			// permission. Park it and re-issue after the fill.
			m.retry = append(m.retry, retryReq{write: true, done: wrapped})
		} else {
			m.waiters = append(m.waiters, wrapped)
		}
		return false
	}
	e := l.mshrAlloc(block, write)
	e.waiters = append(e.waiters, wrapped)
	t := GetS
	if write {
		t = GetX
	}
	req := l.pool.get()
	req.Type, req.To, req.Block, req.Req = t, RoleL2, block, l.nodeID()
	send(l.sys.Net, l.nodeID(), l.sys.Home(block), req, start)
	return false
}

// handle processes protocol messages addressed to this L1. Every type
// delivered here is consumed, so the message is recycled on return.
func (l *L1) handle(m *Msg, cycle int64) {
	switch m.Type {
	case DataResp, DataRespX:
		n := l.mshrFind(m.Block)
		if n < 0 {
			panic(fmt.Sprintf("l1 %d: fill for block %d with no MSHR", l.node, m.Block))
		}
		msh := &l.mshrSlab[n]
		wasWrite := msh.write
		l.waitScratch = append(l.waitScratch[:0], msh.waiters...)
		l.retryScratch = append(l.retryScratch[:0], msh.retry...)
		l.mshrRelease(m.Block, n)
		writable := m.Type == DataRespX
		if v, evicted := l.cache.Fill(m.Block, writable, wasWrite); evicted && v.Dirty {
			wb := l.pool.get()
			wb.Type, wb.To, wb.Block, wb.Req = PutData, RoleL2, v.Block, l.nodeID()
			send(l.sys.Net, l.nodeID(), l.sys.Home(v.Block), wb, cycle)
		}
		for _, w := range l.waitScratch {
			w(cycle)
		}
		block := m.Block
		for _, r := range l.retryScratch {
			r := r
			l.eng.ScheduleAfter(1, func() {
				l.Access(block, r.write, r.done)
			})
		}

	case Recall:
		_, dirty := l.cache.Downgrade(m.Block)
		ack := l.pool.get()
		ack.Type, ack.To, ack.Block, ack.Req, ack.WithData = RecallAck, RoleL2, m.Block, m.Req, dirty
		send(l.sys.Net, l.nodeID(), l.sys.Home(m.Block), ack, cycle)

	case RecallInv:
		_, dirty := l.cache.Invalidate(m.Block)
		ack := l.pool.get()
		ack.Type, ack.To, ack.Block, ack.Req, ack.WithData = RecallAck, RoleL2, m.Block, m.Req, dirty
		send(l.sys.Net, l.nodeID(), l.sys.Home(m.Block), ack, cycle)

	case Inv:
		l.cache.Invalidate(m.Block)
		ack := l.pool.get()
		ack.Type, ack.To, ack.Block, ack.Req = InvAck, RoleL2, m.Block, m.Req
		send(l.sys.Net, l.nodeID(), l.sys.Home(m.Block), ack, cycle)

	default:
		panic(fmt.Sprintf("l1 %d: unexpected message %s", l.node, m.Type))
	}
	l.pool.put(m)
}

func (l *L1) nodeID() noc.NodeID { return noc.NodeID(l.node) }
