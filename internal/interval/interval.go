// Package interval provides an augmented balanced interval tree keyed on
// half-open uint64 address ranges [Lo, Hi). It is the lookup structure used
// by the data-object registry to resolve sampled memory addresses into the
// data object that owns them, mirroring how Extrae resolves PEBS addresses
// against the table of known allocations and static symbols.
package interval

import (
	"errors"
	"fmt"
)

// Interval is a half-open address range [Lo, Hi). Hi must be > Lo.
type Interval struct {
	Lo, Hi uint64
}

// Contains reports whether addr lies within the interval.
func (iv Interval) Contains(addr uint64) bool { return addr >= iv.Lo && addr < iv.Hi }

func (iv Interval) String() string { return fmt.Sprintf("[%#x,%#x)", iv.Lo, iv.Hi) }

// ErrEmpty is returned when inserting an interval with Hi <= Lo.
var ErrEmpty = errors.New("interval: empty or inverted interval")

// ErrNotFound is returned by Delete when no node matches the interval.
var ErrNotFound = errors.New("interval: interval not found")

// Tree is an AVL-balanced interval tree with max-endpoint augmentation.
// Intervals are ordered by (Lo, Hi); duplicate (Lo, Hi) pairs are rejected.
// The zero value is an empty tree ready for use.
type Tree[V any] struct {
	root *node[V]
	size int
}

type node[V any] struct {
	iv          Interval
	val         V
	left, right *node[V]
	height      int
	maxHi       uint64 // max Hi over this subtree
}

// Len returns the number of intervals stored.
func (t *Tree[V]) Len() int { return t.size }

// Insert adds the interval with its value. Inserting an interval with an
// identical (Lo, Hi) key replaces the stored value.
func (t *Tree[V]) Insert(iv Interval, v V) error {
	if iv.Hi <= iv.Lo {
		return ErrEmpty
	}
	var grew bool
	t.root, grew = insert(t.root, iv, v)
	if grew {
		t.size++
	}
	return nil
}

// Delete removes the interval with exactly the given (Lo, Hi) key.
func (t *Tree[V]) Delete(iv Interval) error {
	var deleted bool
	t.root, deleted = remove(t.root, iv)
	if !deleted {
		return ErrNotFound
	}
	t.size--
	return nil
}

// Stab returns the value of an interval containing addr. When several
// intervals contain the address, the one with the greatest Lo (the most
// specific / innermost allocation) is returned. ok is false if no interval
// contains the address.
func (t *Tree[V]) Stab(addr uint64) (iv Interval, v V, ok bool) {
	best := stabBest(t.root, addr)
	if best == nil {
		return Interval{}, v, false
	}
	return best.iv, best.val, true
}

func height[V any](n *node[V]) int {
	if n == nil {
		return 0
	}
	return n.height
}

func maxHi[V any](n *node[V]) uint64 {
	if n == nil {
		return 0
	}
	return n.maxHi
}

func (n *node[V]) update() {
	h := height(n.left)
	if hr := height(n.right); hr > h {
		h = hr
	}
	n.height = h + 1
	n.maxHi = n.iv.Hi
	if m := maxHi(n.left); m > n.maxHi {
		n.maxHi = m
	}
	if m := maxHi(n.right); m > n.maxHi {
		n.maxHi = m
	}
}

func balanceFactor[V any](n *node[V]) int { return height(n.left) - height(n.right) }

func rotateRight[V any](n *node[V]) *node[V] {
	l := n.left
	n.left = l.right
	l.right = n
	n.update()
	l.update()
	return l
}

func rotateLeft[V any](n *node[V]) *node[V] {
	r := n.right
	n.right = r.left
	r.left = n
	n.update()
	r.update()
	return r
}

func rebalance[V any](n *node[V]) *node[V] {
	n.update()
	switch bf := balanceFactor(n); {
	case bf > 1:
		if balanceFactor(n.left) < 0 {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if balanceFactor(n.right) > 0 {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

// less orders intervals by (Lo, Hi).
func less(a, b Interval) bool {
	if a.Lo != b.Lo {
		return a.Lo < b.Lo
	}
	return a.Hi < b.Hi
}

func insert[V any](n *node[V], iv Interval, v V) (*node[V], bool) {
	if n == nil {
		nn := &node[V]{iv: iv, val: v}
		nn.update()
		return nn, true
	}
	var grew bool
	switch {
	case less(iv, n.iv):
		n.left, grew = insert(n.left, iv, v)
	case less(n.iv, iv):
		n.right, grew = insert(n.right, iv, v)
	default:
		n.val = v
		return n, false
	}
	return rebalance(n), grew
}

func minNode[V any](n *node[V]) *node[V] {
	for n.left != nil {
		n = n.left
	}
	return n
}

func remove[V any](n *node[V], iv Interval) (*node[V], bool) {
	if n == nil {
		return nil, false
	}
	var deleted bool
	switch {
	case less(iv, n.iv):
		n.left, deleted = remove(n.left, iv)
	case less(n.iv, iv):
		n.right, deleted = remove(n.right, iv)
	default:
		deleted = true
		switch {
		case n.left == nil:
			return n.right, true
		case n.right == nil:
			return n.left, true
		default:
			succ := minNode(n.right)
			n.iv, n.val = succ.iv, succ.val
			n.right, _ = remove(n.right, succ.iv)
		}
	}
	return rebalance(n), deleted
}

// stabBest returns the containing node with the greatest Lo (ties broken by
// the smaller Hi, i.e. the tightest match). The recursion is pruned by the
// subtree maxHi augmentation and by interval ordering.
func stabBest[V any](n *node[V], addr uint64) *node[V] {
	if n == nil || maxHi(n) <= addr {
		return nil
	}
	var best *node[V]
	if n.iv.Contains(addr) {
		best = n
	}
	// Right subtree holds larger Lo values: it can only contain addr when the
	// current Lo is <= addr (ordering guarantees right Lo >= n.iv.Lo).
	if n.iv.Lo <= addr {
		if cand := stabBest(n.right, addr); cand != nil && better(cand, best) {
			best = cand
		}
	}
	if cand := stabBest(n.left, addr); cand != nil && better(cand, best) {
		best = cand
	}
	return best
}

// better reports whether candidate cand is a more specific stab match than
// the current best (nil best always loses).
func better[V any](cand, best *node[V]) bool {
	if best == nil {
		return true
	}
	if cand.iv.Lo != best.iv.Lo {
		return cand.iv.Lo > best.iv.Lo
	}
	return cand.iv.Hi < best.iv.Hi
}
