package core

// TokenPool recycles instruction and data tokens for all compute
// components of one Platform. A simulation runs on one goroutine at a
// time, so no locking is needed (the same rule the noc flit pool follows).
//
// Ownership: a token is pool-owned from Get until the moment it is
// consumed — an instruction when it completes with every reference
// operand filled, a data token when its dependent count reaches zero
// (loop capture, local delivery, or CPM result collection). Tokens that
// were created by a checkpoint restore are ordinary GC objects; freeing
// them into a pool is fine, and tokens still referenced by a snapshot
// are never freed because snapshots hold clones, not the originals.
// Free lists are deliberately invisible to internal/checkpoint: pool
// contents are unobservable, like the flit free lists.
type TokenPool struct {
	instr []*InstrToken
	data  []*DataToken
}

// tokenPoolCap bounds each free list so a pathological produce/consume
// imbalance cannot grow a pool without bound; overflow falls back to GC.
const tokenPoolCap = 1 << 15

// NewTokenPool returns an empty pool.
func NewTokenPool() *TokenPool { return &TokenPool{} }

// GetInstr returns a zeroed instruction token.
func (p *TokenPool) GetInstr() *InstrToken {
	if p == nil || len(p.instr) == 0 {
		return new(InstrToken)
	}
	it := p.instr[len(p.instr)-1]
	p.instr = p.instr[:len(p.instr)-1]
	*it = InstrToken{}
	return it
}

// PutInstr recycles a consumed instruction token.
func (p *TokenPool) PutInstr(it *InstrToken) {
	if p == nil || it == nil || len(p.instr) >= tokenPoolCap {
		return
	}
	p.instr = append(p.instr, it)
}

// GetData returns a zeroed data token.
func (p *TokenPool) GetData() *DataToken {
	if p == nil || len(p.data) == 0 {
		return new(DataToken)
	}
	d := p.data[len(p.data)-1]
	p.data = p.data[:len(p.data)-1]
	*d = DataToken{}
	return d
}

// PutData recycles a consumed data token.
func (p *TokenPool) PutData(d *DataToken) {
	if p == nil || d == nil || len(p.data) >= tokenPoolCap {
		return
	}
	p.data = append(p.data, d)
}

// u32Table is a compact open-addressed uint32 → int32 map: linear
// probing, power-of-two capacity, backward-shift deletion (no
// tombstones, so lookups stay short-probed no matter the churn). It
// replaces the RCU's per-kernel `map[uint32]*sbQueue` and
// `map[DepID][]*InstrToken` — both sized once and reused across
// kernels. The zero value is an empty table.
type u32Table struct {
	keys []uint32
	vals []int32
	live []bool
	n    int
}

func u32hash(key uint32) uint32 { return key * 2654435761 }

// get returns the value for key.
func (t *u32Table) get(key uint32) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := uint32(len(t.keys) - 1)
	for i := u32hash(key) & mask; t.live[i]; i = (i + 1) & mask {
		if t.keys[i] == key {
			return t.vals[i], true
		}
	}
	return 0, false
}

// put inserts or overwrites key.
func (t *u32Table) put(key uint32, val int32) {
	if len(t.keys) == 0 || t.n*4 >= len(t.keys)*3 {
		t.grow()
	}
	mask := uint32(len(t.keys) - 1)
	i := u32hash(key) & mask
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
func (t *u32Table) del(key uint32) {
	if t.n == 0 {
		return
	}
	mask := uint32(len(t.keys) - 1)
	i := u32hash(key) & mask
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
		h := u32hash(t.keys[j]) & mask
		if (j-h)&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.live[i] = false
	t.n--
}

// reset empties the table, keeping its capacity.
func (t *u32Table) reset() {
	for i := range t.live {
		t.live[i] = false
	}
	t.n = 0
}

func (t *u32Table) grow() {
	n := len(t.keys) * 2
	if n < 16 {
		n = 16
	}
	keys, vals, live := t.keys, t.vals, t.live
	t.keys = make([]uint32, n)
	t.vals = make([]int32, n)
	t.live = make([]bool, n)
	t.n = 0
	for i, ok := range live {
		if ok {
			t.put(keys[i], vals[i])
		}
	}
}
