package mpk

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/litterbox-project/enclosure/internal/hw"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/mem"
)

func newUnit(t *testing.T) (*Unit, *mem.AddressSpace, *hw.CPU) {
	t.Helper()
	space := mem.NewAddressSpace(0)
	return NewUnit(space), space, hw.NewCPU(hw.NewClock())
}

func TestPkeyAllocFree(t *testing.T) {
	u, _, _ := newUnit(t)
	for k, used := range u.used {
		if used != (k == 0) {
			t.Fatalf("fresh unit: key %d in use = %v, want only key 0", k, used)
		}
	}
	seen := map[int]bool{0: true}
	for i := 0; i < hw.NumKeys-1; i++ {
		k, errno := u.PkeyAlloc()
		if errno != kernel.OK {
			t.Fatalf("alloc %d: %v", i, errno)
		}
		if seen[k] {
			t.Fatalf("key %d allocated twice", k)
		}
		seen[k] = true
	}
	if _, errno := u.PkeyAlloc(); errno == kernel.OK {
		t.Fatal("17th key allocated")
	}
	if errno := u.PkeyFree(3); errno != kernel.OK {
		t.Fatalf("free: %v", errno)
	}
	if errno := u.PkeyFree(3); errno != kernel.EINVAL {
		t.Fatalf("double free: %v", errno)
	}
	if errno := u.PkeyFree(0); errno != kernel.EINVAL {
		t.Fatalf("freeing key 0: %v", errno)
	}
	if k, errno := u.PkeyAlloc(); errno != kernel.OK || k != 3 {
		t.Fatalf("realloc: %d %v", k, errno)
	}
}

func TestPkeyMprotectValidation(t *testing.T) {
	u, space, _ := newUnit(t)
	sec, _ := space.Map("d", "p", mem.KindData, 2*mem.PageSize, mem.PermR|mem.PermW)
	key, _ := u.PkeyAlloc()

	if errno := u.PkeyMprotect(sec.Base+1, mem.PageSize, mem.PermR, key); errno != kernel.EINVAL {
		t.Fatalf("unaligned base: %v", errno)
	}
	if errno := u.PkeyMprotect(sec.Base, 100, mem.PermR, key); errno != kernel.EINVAL {
		t.Fatalf("unaligned size: %v", errno)
	}
	if errno := u.PkeyMprotect(sec.Base, mem.PageSize, mem.PermR, 15); errno != kernel.EINVAL {
		t.Fatalf("unallocated key: %v", errno)
	}
	if errno := u.PkeyMprotect(0x10000000, mem.PageSize, mem.PermR, key); errno != kernel.ENOENT {
		t.Fatalf("unmapped range: %v", errno)
	}
	if errno := u.PkeyMprotect(sec.Base, sec.Size, mem.PermR|mem.PermW, key); errno != kernel.OK {
		t.Fatalf("valid mprotect: %v", errno)
	}
	if u.keyOf(sec.Base) != key || u.keyOf(sec.Base+mem.PageSize) != key {
		t.Fatal("pages not tagged")
	}
	if u.keyOf(0x999000) != DefaultKey {
		t.Fatal("untracked page not default key")
	}
}

func TestCheckAccessMatrix(t *testing.T) {
	u, space, cpu := newUnit(t)
	sec, _ := space.Map("d", "p", mem.KindData, mem.PageSize, mem.PermR|mem.PermW)
	key, _ := u.PkeyAlloc()
	if errno := u.PkeyMprotect(sec.Base, sec.Size, mem.PermR|mem.PermW, key); errno != kernel.OK {
		t.Fatal(errno)
	}

	cases := []struct {
		read, write bool // PKRU rights for key
		accessWrite bool
		wantFault   bool
	}{
		{true, true, false, false},
		{true, true, true, false},
		{true, false, false, false},
		{true, false, true, true},
		{false, false, false, true},
		{false, false, true, true},
	}
	for i, c := range cases {
		cpu.WritePKRU(hw.PKRUAllDenied.WithKey(key, c.read, c.write))
		err := u.CheckAccess(cpu, sec.Base+8, 4, c.accessWrite)
		var ae *AccessError
		if c.wantFault {
			if !errors.As(err, &ae) {
				t.Errorf("case %d: want fault, got %v", i, err)
			} else if ae.Key != key {
				t.Errorf("case %d: fault key %d", i, ae.Key)
			}
		} else if err != nil {
			t.Errorf("case %d: unexpected %v", i, err)
		}
	}
}

func TestCheckAccessPagePermsAndUnmapped(t *testing.T) {
	u, space, cpu := newUnit(t)
	ro, _ := space.Map("ro", "p", mem.KindROData, mem.PageSize, mem.PermR)
	key, _ := u.PkeyAlloc()
	_ = u.PkeyMprotect(ro.Base, ro.Size, mem.PermR, key)
	cpu.WritePKRU(hw.PKRUAllAllowed)
	// Write to read-only page faults even with a permissive PKRU.
	if err := u.CheckAccess(cpu, ro.Base, 1, true); err == nil {
		t.Fatal("write to rodata allowed")
	}
	if err := u.CheckAccess(cpu, 0x10, 1, false); !errors.Is(err, mem.ErrUnmapped) {
		t.Fatalf("unmapped: %v", err)
	}
	// Zero-size access is a no-op.
	if err := u.CheckAccess(cpu, 0x10, 0, false); err != nil {
		t.Fatalf("zero size: %v", err)
	}
	// Untracked page falls back to section perms.
	data, _ := space.Map("raw", "p", mem.KindData, mem.PageSize, mem.PermR|mem.PermW)
	if err := u.CheckAccess(cpu, data.Base, 8, true); err != nil {
		t.Fatalf("untracked page: %v", err)
	}
}

// TestCheckAccessProperty: CheckAccess agrees with the PKRU register
// semantics for arbitrary key/rights/access combinations.
func TestCheckAccessProperty(t *testing.T) {
	u, space, cpu := newUnit(t)
	sec, _ := space.Map("d", "p", mem.KindData, mem.PageSize, mem.PermR|mem.PermW)
	key, _ := u.PkeyAlloc()
	_ = u.PkeyMprotect(sec.Base, sec.Size, mem.PermR|mem.PermW, key)
	f := func(pkruBits uint32, write bool) bool {
		pkru := hw.PKRU(pkruBits)
		cpu.WritePKRU(pkru)
		err := u.CheckAccess(cpu, sec.Base+16, 8, write)
		allowed := pkru.CanRead(key) && (!write || pkru.CanWrite(key))
		return (err == nil) == allowed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestScanText(t *testing.T) {
	u, space, _ := newUnit(t)
	sec, _ := space.Map("t", "p", mem.KindText, mem.PageSize, mem.PermR|mem.PermX)
	clean := make([]byte, mem.PageSize)
	for i := range clean {
		clean[i] = byte(0x20 + i%0x50)
	}
	_ = space.WriteAt(sec.Base, clean)
	if err := u.ScanText(sec); err != nil {
		t.Fatalf("clean text: %v", err)
	}
	// Plant WRPKRU straddling an odd offset.
	_ = space.WriteAt(sec.Base+1337, WRPKRUOpcode)
	if err := u.ScanText(sec); !errors.Is(err, ErrWRPKRUFound) {
		t.Fatalf("planted WRPKRU: %v", err)
	}
	// At the very end of the section too.
	_ = space.WriteAt(sec.Base, clean)
	_ = space.WriteAt(sec.End()-3, WRPKRUOpcode)
	if err := u.ScanText(sec); !errors.Is(err, ErrWRPKRUFound) {
		t.Fatalf("tail WRPKRU: %v", err)
	}
}

func TestAccessErrorMessage(t *testing.T) {
	e := &AccessError{Addr: 0x400000, Write: true, Key: 5, PKRU: hw.PKRUAllDenied}
	if e.Error() == "" {
		t.Fatal("empty error")
	}
}

// keyOf returns the key tagging the page containing addr.
func (u *Unit) keyOf(addr mem.Addr) int {
	if i := mem.PageIndex(addr.PageNumber()); i >= 0 && i < len(u.pages) && u.pages[i].tracked {
		return int(u.pages[i].key)
	}
	return DefaultKey
}
