package eventsim

import "math"

// TimeHeap is an indexed 4-ary min-heap over per-server event times. A
// Group keys it by absolute next-completion times and the fault injector
// by next fault times; a lockstep loop can key it by
// time-to-next-completion deltas, where sifts are near-O(1) because
// every busy key shrinks by the same dt, preserving relative order. It holds only busy servers
// (finite keys), and Update is an O(1) no-op for servers whose key did
// not move (idle ones between events).
//
// Ties order by server index, so (key, index) is a total order and the
// minimum it defines is unique: Min, MinIndex and the pop sequence are a
// function of the stored keys alone, whatever the heap's arity or
// internal layout. Min returns exactly the minimum of the stored float64
// keys, so replacing a scan over every server's next-completion time with
// a heap peek leaves every simulated event time bit-identical.
type TimeHeap struct {
	// nodes is a 4-ary heap ordered by (key, index): the children of slot
	// p are 4p+1..4p+4. Each node carries its key inline, so a sift
	// compares keys without a detour through a server-indexed array, and
	// a node's four children share one or two cache lines.
	nodes []heapNode
	pos   []int32 // heap slot per server index, -1 when absent
}

// heapNode is one busy server in the heap.
type heapNode struct {
	key float64
	idx int32
}

// less is the heap's total order: by key, then by server index.
func (a heapNode) less(b heapNode) bool {
	return a.key < b.key || a.key == b.key && a.idx < b.idx
}

// NewTimeHeap returns an empty heap over n server indices.
func NewTimeHeap(n int) *TimeHeap {
	if n > math.MaxInt32 {
		panic("eventsim: TimeHeap over more than MaxInt32 servers")
	}
	h := &TimeHeap{pos: make([]int32, n), nodes: make([]heapNode, 0, n)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of servers currently in the heap (finite keys).
func (h *TimeHeap) Len() int { return len(h.nodes) }

// Min returns the smallest stored key, or +Inf when no server is busy.
func (h *TimeHeap) Min() float64 {
	if len(h.nodes) == 0 {
		return math.Inf(1)
	}
	return h.nodes[0].key
}

// MinIndex returns the server index holding the smallest key (lowest
// index on ties), or -1 when the heap is empty.
func (h *TimeHeap) MinIndex() int {
	if len(h.nodes) == 0 {
		return -1
	}
	return int(h.nodes[0].idx)
}

// Key returns server i's stored key (+Inf when absent).
func (h *TimeHeap) Key(i int) float64 {
	if p := h.pos[i]; p >= 0 {
		return h.nodes[p].key
	}
	return math.Inf(1)
}

// Update sets server i's key, inserting, removing (key +Inf) or
// repositioning it as needed. It is a cheap no-op when the key is
// unchanged (idle servers between events).
func (h *TimeHeap) Update(i int, key float64) {
	p := int(h.pos[i])
	inf := math.IsInf(key, 1)
	switch {
	case p < 0 && inf:
		return // stays absent
	case p < 0:
		h.nodes = append(h.nodes, heapNode{key: key, idx: int32(i)})
		h.up(len(h.nodes) - 1)
	case key == h.nodes[p].key:
		return
	case inf:
		h.remove(p)
	case key < h.nodes[p].key:
		h.nodes[p].key = key
		h.up(p)
	default:
		h.nodes[p].key = key
		h.down(p)
	}
}

// remove deletes the node at slot p, refilling the hole with the last
// node.
func (h *TimeHeap) remove(p int) {
	h.pos[h.nodes[p].idx] = -1
	last := len(h.nodes) - 1
	moved := h.nodes[last]
	h.nodes = h.nodes[:last]
	if p == last {
		return
	}
	h.nodes[p] = moved
	if h.up(p) == p {
		h.down(p)
	}
}

// set stores node x at slot p and records its position.
func (h *TimeHeap) set(p int, x heapNode) {
	h.nodes[p] = x
	h.pos[x.idx] = int32(p)
}

// up sifts the node at slot p toward the root and returns its final
// slot.
func (h *TimeHeap) up(p int) int {
	x := h.nodes[p]
	for p > 0 {
		parent := (p - 1) / 4
		if !x.less(h.nodes[parent]) {
			break
		}
		h.set(p, h.nodes[parent])
		p = parent
	}
	h.set(p, x)
	return p
}

// down sifts the node at slot p toward the leaves.
func (h *TimeHeap) down(p int) {
	x, n := h.nodes[p], len(h.nodes)
	for {
		c := 4*p + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, n); j++ {
			if h.nodes[j].less(h.nodes[m]) {
				m = j
			}
		}
		if !h.nodes[m].less(x) {
			break
		}
		h.set(p, h.nodes[m])
		p = m
	}
	h.set(p, x)
}
