package conflict

import "fmt"

// IdealReference is the original map-and-heap-node build of the ideal
// LRU-stack tracker: a map[line]*node plus pointer-linked list nodes
// allocated per insertion. It is retained solely as a reference
// implementation — the differential tests check the flat Ideal against
// it observation by observation, and BenchmarkConflictTracker reports
// its allocs/op as the before side of the data-layout rewrite.
// Production code must use Ideal.
type IdealReference struct {
	capacity int
	nodes    map[uint64]*refNode
	head     *refNode // most recently used
	tail     *refNode // least recently used
	size     int

	conflicts uint64
}

type refNode struct {
	line       uint64
	prev, next *refNode
}

// NewIdealReference returns the map-based reference tracker for a
// cache with capacity blocks.
func NewIdealReference(capacity int) (*IdealReference, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("%w: stack capacity %d must be positive", ErrBadConfig, capacity)
	}
	return &IdealReference{capacity: capacity, nodes: make(map[uint64]*refNode, capacity)}, nil
}

// MustNewIdealReference is NewIdealReference for capacities known to
// be valid; it panics on error.
func MustNewIdealReference(capacity int) *IdealReference {
	t, err := NewIdealReference(capacity)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements Tracker.
func (t *IdealReference) Name() string { return "ideal-lru-stack-map-reference" }

// Reset implements Tracker.
func (t *IdealReference) Reset() {
	t.nodes = make(map[uint64]*refNode, t.capacity)
	t.head, t.tail, t.size = nil, nil, 0
	t.conflicts = 0
}

// Observe implements Tracker.
func (t *IdealReference) Observe(o *Observation) bool {
	n, inStack := t.nodes[o.LineAddr]
	conflict := !o.Hit && inStack
	if conflict {
		t.conflicts++
	}
	if inStack {
		t.moveToFront(n)
	} else {
		t.insertFront(o.LineAddr)
	}
	return conflict
}

// Conflicts returns the number of conflict misses detected.
func (t *IdealReference) Conflicts() uint64 { return t.conflicts }

func (t *IdealReference) insertFront(line uint64) {
	n := &refNode{line: line, next: t.head}
	if t.head != nil {
		t.head.prev = n
	}
	t.head = n
	if t.tail == nil {
		t.tail = n
	}
	t.nodes[line] = n
	t.size++
	if t.size > t.capacity {
		// Drop the LRU entry: it falls off the bottom of the stack.
		old := t.tail
		t.tail = old.prev
		if t.tail != nil {
			t.tail.next = nil
		} else {
			t.head = nil
		}
		delete(t.nodes, old.line)
		t.size--
	}
}

func (t *IdealReference) moveToFront(n *refNode) {
	if t.head == n {
		return
	}
	// Unlink.
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if t.tail == n {
		t.tail = n.prev
	}
	// Relink at head.
	n.prev = nil
	n.next = t.head
	t.head.prev = n
	t.head = n
}

// StackSize returns the current number of tracked lines (tests).
func (t *IdealReference) StackSize() int { return t.size }
