// Package prog models the monitored program: a virtual address space with a
// hookable allocator (the stand-in for malloc/realloc interposition), a
// synthetic binary image with symbol and source-line tables (the stand-in
// for the DWARF/ELF metadata Extrae scans for static data objects and IP to
// source-line resolution), and interned call stacks (the identifiers Extrae
// assigns to dynamically allocated objects).
package prog

import (
	"errors"
	"fmt"
)

// Alignment of all allocations, matching glibc malloc's 16-byte alignment.
const allocAlign = 16

// AllocInfo describes one live allocation.
type AllocInfo struct {
	// Addr is the first byte of the user region.
	Addr uint64
	// Size is the requested size in bytes.
	Size uint64
	// StackID identifies the interned allocation call stack.
	StackID uint32
}

// Hooks receives allocator events, exactly like the interposition wrappers
// Extrae installs around malloc/realloc/free.
type Hooks struct {
	// OnAlloc fires after a successful allocation (including the new region
	// of a realloc).
	OnAlloc func(AllocInfo)
	// OnFree fires before a region is released (including the old region of
	// a realloc).
	OnFree func(AllocInfo)
}

// Allocator errors.
var (
	ErrNotAllocated = errors.New("prog: address is not the start of a live allocation")
	ErrZeroSize     = errors.New("prog: zero-size allocation")
)

// AddressSpace is a simulated heap: a bump allocator with a size-segregated
// free list, starting at a configurable base. A deterministic base keeps
// traces reproducible; an ASLR-style randomized base can be requested by the
// monitoring layer to demonstrate why cross-run address comparison fails.
type AddressSpace struct {
	brk   uint64 // next never-used address
	live  map[uint64]AllocInfo
	frees map[uint64][]uint64 // rounded size -> freed addrs (LIFO)
	hooks Hooks
}

// NewAddressSpace creates a heap whose first allocation lands at base
// (rounded up to the allocation alignment).
func NewAddressSpace(base uint64) *AddressSpace {
	base = (base + allocAlign - 1) &^ uint64(allocAlign-1)
	return &AddressSpace{
		brk:   base,
		live:  make(map[uint64]AllocInfo),
		frees: make(map[uint64][]uint64),
	}
}

// SetHooks installs allocator event hooks (pass zero-value Hooks to clear).
func (as *AddressSpace) SetHooks(h Hooks) { as.hooks = h }

func roundSize(size uint64) uint64 {
	return (size + allocAlign - 1) &^ uint64(allocAlign-1)
}

// Alloc reserves size bytes and reports the allocation to the hooks.
// stackID identifies the allocation site call stack.
func (as *AddressSpace) Alloc(size uint64, stackID uint32) (uint64, error) {
	if size == 0 {
		return 0, ErrZeroSize
	}
	rs := roundSize(size)
	var addr uint64
	if lst := as.frees[rs]; len(lst) > 0 {
		addr = lst[len(lst)-1]
		as.frees[rs] = lst[:len(lst)-1]
	} else {
		addr = as.brk
		as.brk += rs
	}
	info := AllocInfo{Addr: addr, Size: size, StackID: stackID}
	as.live[addr] = info
	if as.hooks.OnAlloc != nil {
		as.hooks.OnAlloc(info)
	}
	return addr, nil
}

// Free releases the allocation starting at addr.
func (as *AddressSpace) Free(addr uint64) error {
	info, ok := as.live[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNotAllocated, addr)
	}
	if as.hooks.OnFree != nil {
		as.hooks.OnFree(info)
	}
	delete(as.live, addr)
	rs := roundSize(info.Size)
	as.frees[rs] = append(as.frees[rs], addr)
	return nil
}

// Realloc grows or shrinks the allocation at addr, returning the (possibly
// moved) new address. Like glibc, a grow moves the region; a shrink keeps it
// in place. Both the free of the old region and the allocation of the new
// are reported to the hooks, which is what lets the monitoring layer retire
// and re-register the data object like Extrae's realloc wrapper does.
func (as *AddressSpace) Realloc(addr, newSize uint64, stackID uint32) (uint64, error) {
	if newSize == 0 {
		return 0, ErrZeroSize
	}
	info, ok := as.live[addr]
	if !ok {
		return 0, fmt.Errorf("%w: %#x", ErrNotAllocated, addr)
	}
	if roundSize(newSize) == roundSize(info.Size) {
		// Same rounded block: update size in place, report both events so the
		// object registry sees the size change.
		if as.hooks.OnFree != nil {
			as.hooks.OnFree(info)
		}
		ni := AllocInfo{Addr: addr, Size: newSize, StackID: stackID}
		as.live[addr] = ni
		if as.hooks.OnAlloc != nil {
			as.hooks.OnAlloc(ni)
		}
		return addr, nil
	}
	if err := as.Free(addr); err != nil {
		return 0, err
	}
	return as.Alloc(newSize, stackID)
}
