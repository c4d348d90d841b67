package mpk

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/litterbox-project/enclosure/internal/mem"
)

// refScanGadgets is the two-pass gadget scan ScanGadgets replaced, kept
// as the reference FuzzScanGadgets compares it against: a linear-sweep
// decode that records every instruction boundary, then a raw WRPKRU
// match at every byte offset classified against those boundaries, then
// a straddle pass over each pair of contiguous sections.
func refScanGadgets(space *mem.AddressSpace, secs []*mem.Section, gate GateInfo) ([]Finding, error) {
	var findings []Finding
	ordered := make([]*mem.Section, len(secs))
	copy(ordered, secs)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Base < ordered[j].Base })

	bufs := make(map[*mem.Section][]byte, len(ordered))
	for _, sec := range ordered {
		buf := make([]byte, sec.Size)
		if err := space.ReadAt(sec.Base, buf); err != nil {
			return nil, err
		}
		bufs[sec] = buf
		findings = append(findings, refScanSection(sec, buf, gate)...)
	}
	for i := 0; i+1 < len(ordered); i++ {
		a, b := ordered[i], ordered[i+1]
		if a.End() != b.Base {
			continue
		}
		ab, bb := bufs[a], bufs[b]
		tail, head := min(2, len(ab)), min(2, len(bb))
		win := append(append([]byte(nil), ab[len(ab)-tail:]...), bb[:head]...)
		for off := 0; off+3 <= len(win); off++ {
			if win[off] == 0x0F && win[off+1] == 0x01 && win[off+2] == 0xEF {
				findings = append(findings, Finding{
					Kind: GadgetStraddle, Section: a.Name, Pkg: a.Pkg,
					Addr:   a.End() - mem.Addr(tail-off),
					Detail: fmt.Sprintf("spans %s|%s", a.Name, b.Name),
				})
			}
		}
	}
	return findings, nil
}

func refScanSection(sec *mem.Section, buf []byte, gate GateInfo) []Finding {
	var findings []Finding
	isWRPKRU := func(i int) bool {
		return i+3 <= len(buf) && buf[i] == 0x0F && buf[i+1] == 0x01 && buf[i+2] == 0xEF
	}
	boundary := make([]bool, len(buf))
	for i := 0; i < len(buf); {
		boundary[i] = true
		switch {
		case isWRPKRU(i):
			i += 3
		case (buf[i] == opMovImm32 || buf[i] == opCallRel || buf[i] == opJmpRel) && i+5 <= len(buf):
			if buf[i] == opCallRel || buf[i] == opJmpRel {
				rel := int32(uint32(buf[i+1]) | uint32(buf[i+2])<<8 | uint32(buf[i+3])<<16 | uint32(buf[i+4])<<24)
				target := sec.Base + mem.Addr(i+5) + mem.Addr(int64(rel))
				if r, in := gate.rangeOf(target); in && !gate.Entries[target] {
					op := "call"
					if buf[i] == opJmpRel {
						op = "jmp"
					}
					findings = append(findings, Finding{
						Kind: GadgetMidGate, Section: sec.Name, Pkg: sec.Pkg,
						Addr: sec.Base + mem.Addr(i), Target: target,
						Detail: fmt.Sprintf("%s into %s at +%#x skips the gate entry check", op, r.Name, uint64(target-r.Base)),
					})
				}
			}
			i += 5
		default:
			i++
		}
	}
	for i := 0; i+3 <= len(buf); i++ {
		if !isWRPKRU(i) {
			continue
		}
		kind, detail := GadgetEmbedded, "inside a multi-byte operand, reachable by misaligned transfer"
		if boundary[i] {
			kind, detail = GadgetWRPKRU, "on an instruction boundary"
		}
		findings = append(findings, Finding{
			Kind: kind, Section: sec.Name, Pkg: sec.Pkg,
			Addr: sec.Base + mem.Addr(i), Detail: detail,
		})
	}
	return findings
}

// gadgetLayout maps the fuzz layout into a fresh space: untrusted text
// sections a and b (contiguous unless gap puts a rodata page between
// them) and one page of gate text g after them. Every page is linker-
// style clean filler until the caller plants bytes.
func gadgetLayout(tb testing.TB, gap bool) (space *mem.AddressSpace, a, b, g *mem.Section) {
	tb.Helper()
	space = mem.NewAddressSpace(0)
	mapText := func(name, pkg string) *mem.Section {
		sec, err := space.Map(name, pkg, mem.KindText, mem.PageSize, mem.PermR|mem.PermX)
		if err != nil {
			tb.Fatal(err)
		}
		buf := make([]byte, sec.Size)
		for i := range buf {
			buf[i] = byte(0x10 + i%0x70)
		}
		if err := space.WriteAt(sec.Base, buf); err != nil {
			tb.Fatal(err)
		}
		return sec
	}
	a = mapText("mod.text", "mod")
	if gap {
		if _, err := space.Map("mod.rodata", "mod", mem.KindROData, mem.PageSize, mem.PermR); err != nil {
			tb.Fatal(err)
		}
	}
	b = mapText("mod2.text", "mod2")
	g = mapText("closure.e1.text", "main")
	return space, a, b, g
}

// rel32 encodes a call or jmp at addr whose target is target.
func rel32(op byte, addr, target mem.Addr) []byte {
	rel := int64(target) - int64(addr+5)
	return []byte{op, byte(rel), byte(rel >> 8), byte(rel >> 16), byte(rel >> 24)}
}

// FuzzScanGadgets mutates the text at the end of one untrusted section
// (tail) and the start of the next (head), with or without a gap between
// them and with any subset of two gate entries, and requires the
// one-pass scan's findings to equal the two-pass reference's, element
// for element and in order. Seeds plant WRPKRU (0F 01 EF) on and off
// instruction boundaries, inside B8/E8/E9 operands, cut off at a
// section's end, split across the two sections, and calls and jumps
// onto and past a gate entry.
func FuzzScanGadgets(f *testing.F) {
	_, a, _, g := gadgetLayout(f, false)
	wrpkru := []byte{0x0F, 0x01, 0xEF}
	callAt := func(op byte, target mem.Addr) []byte {
		// A tail of n bytes starts at a.End()-n; the call is its first.
		return append(rel32(op, a.End()-8, target), 0x10, 0x11, 0x12)
	}
	f.Add([]byte{}, []byte{}, false, uint8(0))
	f.Add(wrpkru, []byte{0x20}, false, uint8(0))
	f.Add([]byte{0x20, 0x0F, 0x01}, []byte{0xEF, 0x20}, false, uint8(0))
	f.Add([]byte{0x0F}, []byte{0x01, 0xEF}, false, uint8(0))
	f.Add([]byte{0x0F, 0x01}, []byte{0xEF}, true, uint8(0))
	f.Add([]byte{opMovImm32, 0x0F, 0x01, 0xEF, 0x11, 0x20}, []byte{opMovImm32, 0x11, 0x0F, 0x01, 0xEF, 0x0F, 0x01, 0xEF}, false, uint8(0))
	f.Add([]byte{opMovImm32, 0x11, 0x12, 0x0F, 0x01}, []byte{0xEF}, false, uint8(0))
	f.Add([]byte{opCallRel, 0x0F, 0x01, 0xEF}, []byte{opJmpRel, 0x0F, 0x01, 0xEF, 0x0F, 0x01, 0xEF}, false, uint8(1))
	f.Add([]byte{0x20, opMovImm32, 0x0F, 0x01}, []byte{0xEF}, false, uint8(0))
	f.Add(callAt(opCallRel, g.Base), []byte{}, false, uint8(1))
	f.Add(callAt(opCallRel, g.Base), []byte{}, false, uint8(0))
	f.Add(callAt(opJmpRel, g.Base+16), []byte{}, false, uint8(1))
	f.Add(callAt(opJmpRel, g.Base+16), wrpkru, true, uint8(3))

	f.Fuzz(func(t *testing.T, tail, head []byte, gap bool, entries uint8) {
		space, a, b, g := gadgetLayout(t, gap)
		tail = tail[max(0, len(tail)-int(a.Size)):]
		head = head[:min(len(head), int(b.Size))]
		if err := space.WriteAt(a.End()-mem.Addr(len(tail)), tail); err != nil {
			t.Fatal(err)
		}
		if err := space.WriteAt(b.Base, head); err != nil {
			t.Fatal(err)
		}
		gate := GateInfo{
			Ranges:  []GateRange{{Name: g.Name, Base: g.Base, Size: g.Size}},
			Entries: map[mem.Addr]bool{},
		}
		if entries&1 != 0 {
			gate.Entries[g.Base] = true
		}
		if entries&2 != 0 {
			gate.Entries[g.Base+16] = true
		}
		secs := []*mem.Section{b, a}
		want, err := refScanGadgets(space, secs, gate)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewUnit(space).ScanGadgets(secs, gate)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("one-pass scan disagrees with the reference:\n got  %v\n want %v", got, want)
		}
	})
}

// BenchmarkScanGadgets scans 32 contiguous pages of clean linker-style
// text against one gate range: the common case at MPK Setup, where every
// byte is decoded and nothing is found.
func BenchmarkScanGadgets(b *testing.B) {
	space := mem.NewAddressSpace(0)
	var secs []*mem.Section
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 32; i++ {
		sec, err := space.Map(fmt.Sprintf("p%d.text", i), fmt.Sprintf("p%d", i), mem.KindText, mem.PageSize, mem.PermR|mem.PermX)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, sec.Size)
		for j := range buf {
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			buf[j] = byte(0x10 + (x>>57)&0x7f)
		}
		if err := space.WriteAt(sec.Base, buf); err != nil {
			b.Fatal(err)
		}
		secs = append(secs, sec)
	}
	gateSec, err := space.Map("closure.e1.text", "main", mem.KindText, mem.PageSize, mem.PermR|mem.PermX)
	if err != nil {
		b.Fatal(err)
	}
	gate := GateInfo{
		Ranges:  []GateRange{{Name: gateSec.Name, Base: gateSec.Base, Size: gateSec.Size}},
		Entries: map[mem.Addr]bool{gateSec.Base: true},
	}
	u := NewUnit(space)
	b.SetBytes(int64(len(secs)) * mem.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := u.ScanGadgets(secs, gate)
		if err != nil || len(fs) != 0 {
			b.Fatal(fs, err)
		}
	}
}
