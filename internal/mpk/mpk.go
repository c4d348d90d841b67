// Package mpk simulates the Intel Memory Protection Keys unit LB_MPK
// builds on (§5.3): page-table entries carry a 4-bit key; the
// user-writable PKRU register encodes, with two bits per key, whether
// data tagged with each key may be read or written; the kernel exposes
// pkey_alloc/pkey_free and pkey_mprotect to manage tags. Data accesses
// are checked against PKRU; instruction fetches are not (MPK protects
// data only), so execute rights remain section-level.
//
// Like ERIM and the paper, the unit also provides a binary scan that
// rejects program text containing a WRPKRU instruction outside
// LitterBox's own package — otherwise untrusted code could simply grant
// itself access.
package mpk

import (
	"errors"
	"fmt"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/mem"
)

// DefaultKey is protection key 0, which tags all memory not explicitly
// retagged; PKRU conventionally leaves it accessible.
const DefaultKey = 0

// WRPKRUOpcode is the x86 encoding of WRPKRU (0F 01 EF). The text scan
// searches untrusted text sections for it.
var WRPKRUOpcode = []byte{0x0F, 0x01, 0xEF}

// Errors reported by the unit.
var (
	ErrNoKeys      = errors.New("mpk: out of protection keys")
	ErrBadKey      = errors.New("mpk: invalid or unallocated key")
	ErrNotSection  = errors.New("mpk: range is not a mapped section")
	ErrWRPKRUFound = errors.New("mpk: WRPKRU instruction in untrusted text")
)

// pte is one page's key tag. The zero entry is an untracked page: the
// default key, with the permissions of the section holding it.
type pte struct {
	perm    mem.Perm
	key     uint8
	tracked bool
}

// Unit is the simulated MPK-capable MMU shared by all CPUs of a
// program. It owns the page-table key tags, one entry per page indexed
// by mem.PageIndex like the address space's own page table, and
// enforces PKRU on access.
type Unit struct {
	space *mem.AddressSpace

	used  [hw.NumKeys]bool
	pages []pte // grows to the highest page ever tagged
	muts  int64 // bumped on every key-table mutation (see clone.go)

	// undo is a clone's journal (nil on units not made by Clone): the
	// key bitmap and generation at birth, plus every page tag changed
	// since with the entry it replaced. Revert replays it.
	undo *journal
}

// NewUnit returns an MPK unit over the address space. Key 0 is
// pre-allocated as the default key, as on Linux.
func NewUnit(space *mem.AddressSpace) *Unit {
	u := &Unit{space: space}
	u.used[DefaultKey] = true
	return u
}

// PkeyAlloc reserves a fresh key. Implements kernel.PkeyOps.
func (u *Unit) PkeyAlloc() (int, kernel.Errno) {
	for k := 1; k < hw.NumKeys; k++ {
		if !u.used[k] {
			u.used[k] = true
			u.muts++
			return k, kernel.OK
		}
	}
	return -1, kernel.ENOSYS // ENOSPC in spirit; kernel maps exhaustion
}

// PkeyFree releases a key. Pages tagged with it fall back to DefaultKey
// semantics only after an explicit retag; freeing a key in use is the
// caller's bug, as on Linux.
func (u *Unit) PkeyFree(key int) kernel.Errno {
	if key <= 0 || key >= hw.NumKeys || !u.used[key] {
		return kernel.EINVAL
	}
	u.used[key] = false
	u.muts++
	return kernel.OK
}

// PkeyMprotect tags [base, base+size) with key and sets its page
// permissions. The range must be page aligned, must not wrap past 2^64,
// and must be mapped. Implements kernel.PkeyOps; LitterBox's Transfer
// invokes it for every span reassignment (the paper's Table 1
// "transfer" row).
func (u *Unit) PkeyMprotect(base mem.Addr, size uint64, perm mem.Perm, key int) kernel.Errno {
	first, last, ok := mem.PageRange(base, size)
	if !ok || !base.PageAligned() || size%mem.PageSize != 0 {
		return kernel.EINVAL
	}
	if key < 0 || key >= hw.NumKeys || !u.used[key] {
		return kernel.EINVAL
	}
	if !u.space.Mapped(base, size) {
		return kernel.ENOENT
	}
	lo, hi := mem.PageIndex(first), mem.PageIndex(last)
	if n := hi + 1 - len(u.pages); n > 0 {
		u.pages = append(u.pages, make([]pte, n)...)
	}
	for i := lo; i <= hi; i++ {
		if u.undo != nil {
			u.undo.notePage(u.pages, i)
		}
		u.pages[i] = pte{perm: perm, key: uint8(key), tracked: true}
	}
	u.muts++
	return kernel.OK
}

// AccessError describes an MPK protection fault.
type AccessError struct {
	Addr  mem.Addr
	Write bool
	Key   int
	PKRU  hw.PKRU
}

// Error implements the error interface.
func (e *AccessError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("mpk: protection fault: %s %s key=%d %s", op, e.Addr, e.Key, e.PKRU)
}

// CheckAccess validates a data access of size bytes at addr under the
// cpu's PKRU. Unmapped addresses fault with mem.ErrUnmapped, and so
// does a range that wraps past 2^64 into the never-mapped page 0; key
// violations fault with *AccessError. Page permissions (e.g. writing
// rodata) are also enforced, as the page tables would.
func (u *Unit) CheckAccess(cpu *hw.CPU, addr mem.Addr, size uint64, write bool) error {
	if size == 0 {
		return nil
	}
	pkru := cpu.PeekPKRU()
	cpu.Clock.Advance(hw.CostPTWalk)
	cpu.Counters.PTWalks++
	first, last, ok := mem.PageRange(addr, size)
	if !ok {
		return fmt.Errorf("%w: %s", mem.ErrUnmapped, addr)
	}
	for p := first; p <= last; p++ {
		var e pte
		if i := mem.PageIndex(p); uint(i) < uint(len(u.pages)) {
			e = u.pages[i]
		}
		if !e.tracked {
			// Untracked page: default key, permissions from the section.
			sec := u.space.SectionAt(mem.Addr(p << mem.PageShift))
			if sec == nil {
				return fmt.Errorf("%w: %s", mem.ErrUnmapped, addr)
			}
			e = pte{perm: sec.Perm, key: DefaultKey}
		}
		key := int(e.key)
		pageOK := e.perm.Has(mem.PermR) && (!write || e.perm.Has(mem.PermW))
		if keyOK := pkru.CanRead(key) && (!write || pkru.CanWrite(key)); !pageOK || !keyOK {
			return &AccessError{Addr: addr, Write: write, Key: key, PKRU: pkru}
		}
	}
	return nil
}

// ScanText searches a text section's bytes for a WRPKRU occurrence,
// including sequences straddling any offset — the plain opcode scan.
// LitterBox's Init runs the decode-aware ScanGadgets instead; this one
// stays as the reference the gadget scanner's tests show is blind to
// the seeded gate-bypass modules.
func (u *Unit) ScanText(sec *mem.Section) error {
	buf := make([]byte, sec.Size)
	if err := u.space.ReadAt(sec.Base, buf); err != nil {
		return fmt.Errorf("mpk: scan %s: %w", sec.Name, err)
	}
	for i := 0; i+len(WRPKRUOpcode) <= len(buf); i++ {
		if buf[i] == WRPKRUOpcode[0] && buf[i+1] == WRPKRUOpcode[1] && buf[i+2] == WRPKRUOpcode[2] {
			return fmt.Errorf("%w: %s at +%#x", ErrWRPKRUFound, sec.Name, i)
		}
	}
	return nil
}
