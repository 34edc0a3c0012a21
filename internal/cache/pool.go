package cache

// msgPool recycles protocol messages for every controller of one cache
// System. A simulation runs on one goroutine at a time, so the free list
// needs no locking (the same rule the noc flit pool and core token pool
// follow).
//
// Ownership: a message is pool-owned from get until its consumer frees
// it — GetS/GetX when their transaction completes at the home bank,
// every other type at the end of the handler that received it. Pools
// are invisible to the checkpoint layer: snapshots deep-copy messages,
// so nothing a snapshot holds is ever recycled under it.
type msgPool struct {
	free []*Msg
}

// msgPoolCap bounds the free list; overflow falls back to the GC.
const msgPoolCap = 1 << 15

// get returns a zeroed message.
func (p *msgPool) get() *Msg {
	if p == nil || len(p.free) == 0 {
		return new(Msg)
	}
	m := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	*m = Msg{}
	return m
}

// put recycles a consumed message.
func (p *msgPool) put(m *Msg) {
	if p == nil || m == nil || len(p.free) >= msgPoolCap {
		return
	}
	p.free = append(p.free, m)
}

// blockTable is a compact open-addressed uint64 → int32 map: linear
// probing, power-of-two capacity, backward-shift deletion (no
// tombstones). It replaces the home bank's directory and transaction
// maps — keyed by block address, sized once and reused for the run.
// The zero value is an empty table.
type blockTable struct {
	keys []uint64
	vals []int32
	live []bool
	n    int
}

func blockHash(k uint64) uint64 {
	k *= 0x9e3779b97f4a7c15
	return k ^ (k >> 32)
}

// get returns the value for key.
func (t *blockTable) get(key uint64) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := uint64(len(t.keys) - 1)
	for i := blockHash(key) & mask; t.live[i]; i = (i + 1) & mask {
		if t.keys[i] == key {
			return t.vals[i], true
		}
	}
	return 0, false
}

// put inserts or overwrites key.
func (t *blockTable) put(key uint64, val int32) {
	if len(t.keys) == 0 || t.n*4 >= len(t.keys)*3 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	i := blockHash(key) & mask
	for t.live[i] {
		if t.keys[i] == key {
			t.vals[i] = val
			return
		}
		i = (i + 1) & mask
	}
	t.keys[i], t.vals[i], t.live[i] = key, val, true
	t.n++
}

// del removes key, if present, shifting the displaced run backward so
// no tombstone is left behind.
func (t *blockTable) del(key uint64) {
	if t.n == 0 {
		return
	}
	mask := uint64(len(t.keys) - 1)
	i := blockHash(key) & mask
	for {
		if !t.live[i] {
			return
		}
		if t.keys[i] == key {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		if !t.live[j] {
			break
		}
		h := blockHash(t.keys[j]) & mask
		if (j-h)&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.live[i] = false
	t.n--
}

// reset empties the table, keeping its capacity.
func (t *blockTable) reset() {
	for i := range t.live {
		t.live[i] = false
	}
	t.n = 0
}

func (t *blockTable) grow() {
	n := len(t.keys) * 2
	if n < 16 {
		n = 16
	}
	keys, vals, live := t.keys, t.vals, t.live
	t.keys = make([]uint64, n)
	t.vals = make([]int32, n)
	t.live = make([]bool, n)
	t.n = 0
	for i, ok := range live {
		if ok {
			t.put(keys[i], vals[i])
		}
	}
}
