package prog

import (
	"fmt"
	"strings"
)

// CallStack tracks the active call chain of a simulated thread as frame
// entry IPs. The monitoring layer snapshots it when a PEBS sample fires and
// when an allocation is made (the allocation call stack is the identity of a
// dynamic data object in the paper).
type CallStack struct {
	frames []uint64
}

// Push enters a frame identified by its call-site IP.
func (cs *CallStack) Push(ip uint64) { cs.frames = append(cs.frames, ip) }

// Pop leaves the innermost frame. Popping an empty stack is a programming
// error and panics, as it indicates unbalanced instrumentation.
func (cs *CallStack) Pop() {
	if len(cs.frames) == 0 {
		panic("prog: CallStack.Pop on empty stack (unbalanced instrumentation)")
	}
	cs.frames = cs.frames[:len(cs.frames)-1]
}

// Snapshot returns a copy of the frames, outermost first.
func (cs *CallStack) Snapshot() []uint64 {
	out := make([]uint64, len(cs.frames))
	copy(out, cs.frames)
	return out
}

// StackTable interns call stacks, assigning each distinct chain a compact
// uint32 id, like Extrae's callstack identifier tables. ID 0 is reserved for
// the empty stack.
type StackTable struct {
	ids    map[string]uint32
	stacks [][]uint64
}

// NewStackTable creates an empty table with id 0 bound to the empty stack.
func NewStackTable() *StackTable {
	st := &StackTable{ids: make(map[string]uint32)}
	st.stacks = append(st.stacks, nil) // id 0
	st.ids[""] = 0
	return st
}

func stackKey(frames []uint64) string {
	if len(frames) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, f := range frames {
		fmt.Fprintf(&sb, "%x;", f)
	}
	return sb.String()
}

// Intern returns the id for the frame chain, registering it if new.
func (st *StackTable) Intern(frames []uint64) uint32 {
	key := stackKey(frames)
	if id, ok := st.ids[key]; ok {
		return id
	}
	id := uint32(len(st.stacks))
	cp := make([]uint64, len(frames))
	copy(cp, frames)
	st.stacks = append(st.stacks, cp)
	st.ids[key] = id
	return id
}

// Frames returns the frame chain for an id (nil for unknown or empty).
func (st *StackTable) Frames(id uint32) []uint64 {
	if int(id) >= len(st.stacks) {
		return nil
	}
	return st.stacks[id]
}

// Len returns the number of interned stacks, including the empty stack.
func (st *StackTable) Len() int { return len(st.stacks) }

// Stacks returns a deep copy of every interned chain, index = id (the
// checkpoint serialization of the table; the key map is derivable).
func (st *StackTable) Stacks() [][]uint64 {
	out := make([][]uint64, len(st.stacks))
	for i, s := range st.stacks {
		out[i] = append([]uint64(nil), s...)
	}
	return out
}

// RestoreStacks replaces the table's contents with the given chains. The
// table as rebuilt by setup must be a prefix of the snapshot (runtime
// interning only appends); a mismatch means the snapshot belongs to a
// different configuration and is rejected.
func (st *StackTable) RestoreStacks(stacks [][]uint64) error {
	if len(stacks) == 0 || len(stacks[0]) != 0 {
		return fmt.Errorf("prog: stack snapshot must reserve id 0 for the empty stack")
	}
	if len(stacks) < len(st.stacks) {
		return fmt.Errorf("prog: stack snapshot has %d chains, rebuilt table already has %d", len(stacks), len(st.stacks))
	}
	ids := make(map[string]uint32, len(stacks))
	chains := make([][]uint64, 0, len(stacks))
	for i, s := range stacks {
		var cp []uint64
		if len(s) > 0 {
			cp = append([]uint64(nil), s...)
		}
		key := stackKey(cp)
		if prev, ok := ids[key]; ok {
			return fmt.Errorf("prog: stack snapshot chains %d and %d are duplicates", prev, i)
		}
		if i < len(st.stacks) && key != stackKey(st.stacks[i]) {
			return fmt.Errorf("prog: stack snapshot chain %d does not match the rebuilt table", i)
		}
		ids[key] = uint32(i)
		chains = append(chains, cp)
	}
	st.ids = ids
	st.stacks = chains
	return nil
}

// SiteName renders the innermost frame of the stack as the short allocation
// site label the paper uses, e.g. "108_GenerateProblem_ref.cpp" for an
// allocation at line 108 of that file.
func (st *StackTable) SiteName(id uint32, b *Binary) string {
	frames := st.Frames(id)
	if len(frames) == 0 {
		return "unknown"
	}
	ip := frames[len(frames)-1]
	loc, ok := b.Lookup(ip)
	if !ok {
		return fmt.Sprintf("ip_%#x", ip)
	}
	return fmt.Sprintf("%d_%s", loc.Line, loc.File)
}
