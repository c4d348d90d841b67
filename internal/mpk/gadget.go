package mpk

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/litterbox-project/enclosure/internal/mem"
)

// This file is the Garmr-style gadget scan over untrusted text: where
// ScanText only answers "do these three bytes appear in this section",
// the gadget scan decodes the simulated instruction stream and finds
// the two ways a WRPKRU-equivalent escalation can hide from the plain
// per-section byte match:
//
//  1. a WRPKRU sequence *straddling* two virtually-contiguous text
//     sections (the tail bytes of one and the head bytes of the next
//     are each individually clean);
//  2. a direct call/jmp whose target lands *inside* gate text — the
//     LitterBox runtime or an enclosure closure — past the sanctioned
//     entry point, skipping the PKRU check the entry performs. No
//     WRPKRU bytes appear in the attacker's text at all.
//
// The decoder models the synthetic ISA the linker emits (see
// linker.writeSynthetic): one-byte ops in 0x10..0x8F, plus the
// multi-byte forms below. Raw WRPKRU matches are classified by whether
// they fall on a decoded instruction boundary (an actual WRPKRU
// instruction) or inside a multi-byte immediate/displacement (an
// embedded gadget reachable by a misaligned jump).

// Synthetic multi-byte opcodes. Immediates and displacements are
// attacker-controlled data, so WRPKRU bytes may hide inside them.
const (
	opWRPKRU   = 0x0F // WRPKRUOpcode's first byte
	opMovImm32 = 0xB8 // B8 imm32: 5 bytes, imm is data
	opCallRel  = 0xE8 // E8 rel32: 5 bytes, target = next insn + rel
	opJmpRel   = 0xE9 // E9 rel32: 5 bytes, target = next insn + rel
)

// GadgetKind classifies one scanner finding.
type GadgetKind int

// Finding kinds, ordered roughly by how the plain scan relates to them:
// the per-section byte match catches WRPKRU and Embedded, but never
// Straddle or MidGate.
const (
	// GadgetWRPKRU is a WRPKRU sequence on an instruction boundary.
	GadgetWRPKRU GadgetKind = iota
	// GadgetEmbedded is a WRPKRU sequence inside a multi-byte
	// immediate or displacement, reachable by jumping into the middle
	// of the containing instruction.
	GadgetEmbedded
	// GadgetStraddle is a WRPKRU sequence split across the boundary of
	// two virtually-contiguous executable sections.
	GadgetStraddle
	// GadgetMidGate is a direct call/jmp from untrusted text into gate
	// text at a non-sanctioned offset, past the PKRU check the entry
	// point performs.
	GadgetMidGate
)

var gadgetKindNames = [...]string{"wrpkru", "embedded-wrpkru", "straddle-wrpkru", "mid-gate-transfer"}

func (k GadgetKind) String() string {
	if int(k) < len(gadgetKindNames) {
		return gadgetKindNames[k]
	}
	return fmt.Sprintf("gadget(%d)", int(k))
}

// Finding is one gadget the scan located in untrusted text.
type Finding struct {
	Kind    GadgetKind
	Section string   // section containing the gadget (first section for straddles)
	Pkg     string   // owning package
	Addr    mem.Addr // address of the first gadget byte
	Target  mem.Addr // MidGate only: the resolved transfer target
	Detail  string
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s in %s (%s) at %s", f.Kind, f.Section, f.Pkg, f.Addr)
	if f.Kind == GadgetMidGate {
		s += fmt.Sprintf(" -> %s", f.Target)
	}
	if f.Detail != "" {
		s += ": " + f.Detail
	}
	return s
}

// GateRange is one span of trusted gate text (runtime text or an
// enclosure closure).
type GateRange struct {
	Name string
	Base mem.Addr
	Size uint64
}

func (g GateRange) contains(a mem.Addr) bool {
	return a >= g.Base && a < g.Base+mem.Addr(g.Size)
}

// GateInfo describes the trusted gate text and its sanctioned entry
// points for the mid-gate reachability check. A direct transfer into a
// gate range is legitimate only when it lands exactly on an entry.
type GateInfo struct {
	Ranges  []GateRange
	Entries map[mem.Addr]bool
}

func (g GateInfo) rangeOf(a mem.Addr) (GateRange, bool) {
	for _, r := range g.Ranges {
		if r.contains(a) {
			return r, true
		}
	}
	return GateRange{}, false
}

// ErrGadgetFound reports that the gadget scan located an escalation
// path in untrusted text.
var ErrGadgetFound = errors.New("mpk: WRPKRU-reachable gadget in untrusted text")

// GadgetError folds findings into the scanner's verdict error: nil for
// none, otherwise an error wrapping ErrGadgetFound — and, when any
// finding is a WRPKRU byte sequence (raw, embedded, or straddled),
// also ErrWRPKRUFound, so callers matching the plain scan's error keep
// working.
func GadgetError(fs []Finding) error {
	if len(fs) == 0 {
		return nil
	}
	wrpkru := false
	for _, f := range fs {
		if f.Kind != GadgetMidGate {
			wrpkru = true
		}
	}
	if wrpkru {
		return fmt.Errorf("%w: %w: %s (%d finding(s))", ErrGadgetFound, ErrWRPKRUFound, fs[0], len(fs))
	}
	return fmt.Errorf("%w: %s (%d finding(s))", ErrGadgetFound, fs[0], len(fs))
}

// ScanGadgets runs the full gadget scan over the given untrusted text
// sections: per-section decode + raw match, cross-section straddle
// windows, and mid-gate transfer targets resolved against gate. The
// returned error reports only read failures; an empty finding list
// means the text is clean. Findings come section by section in address
// order, straddles last.
func (u *Unit) ScanGadgets(secs []*mem.Section, gate GateInfo) ([]Finding, error) {
	ordered := make([]*mem.Section, len(secs))
	copy(ordered, secs)
	slices.SortFunc(ordered, func(a, b *mem.Section) int { return cmp.Compare(a.Base, b.Base) })

	var findings, straddles []Finding
	var buf []byte
	var prev *mem.Section
	var prevTail []byte // prev's last (up to) two bytes
	for _, sec := range ordered {
		if uint64(cap(buf)) < sec.Size {
			buf = make([]byte, sec.Size)
		}
		buf = buf[:sec.Size]
		if err := u.space.ReadAt(sec.Base, buf); err != nil {
			return nil, fmt.Errorf("mpk: gadget scan %s: %w", sec.Name, err)
		}
		findings = append(findings, scanSection(sec, buf, gate)...)

		// A WRPKRU sequence split across two contiguous executable
		// sections. Each section's interior is covered above, so only
		// the windows crossing the boundary are checked: the last two
		// bytes of prev followed by the first two of sec.
		if prev != nil && prev.End() == sec.Base {
			// Four bytes hold at most one WRPKRU: 0F cannot follow 0F.
			win := append(append(make([]byte, 0, 4), prevTail...), buf[:min(2, len(buf))]...)
			if off := bytes.Index(win, WRPKRUOpcode); off >= 0 {
				straddles = append(straddles, Finding{
					Kind: GadgetStraddle, Section: prev.Name, Pkg: prev.Pkg,
					Addr:   prev.End() - mem.Addr(len(prevTail)-off),
					Detail: fmt.Sprintf("spans %s|%s", prev.Name, sec.Name),
				})
			}
		}
		prev = sec
		prevTail = append(prevTail[:0], buf[len(buf)-min(2, len(buf)):]...)
	}
	return append(findings, straddles...), nil
}

// leadsInsn marks the bytes that can begin a multi-byte instruction:
// WRPKRU's first byte and the 5-byte opcodes. Every other byte is a
// one-byte instruction the decoder steps over.
var leadsInsn = [256]bool{opWRPKRU: true, opMovImm32: true, opCallRel: true, opJmpRel: true}

// scanSection decodes one section in a single linear sweep and reports
// mid-gate transfers in decode order, then raw WRPKRU sequences by
// offset. A WRPKRU at an instruction start is GadgetWRPKRU; one that
// starts inside a 5-byte instruction's operand is GadgetEmbedded. No
// other offset can start one: an instruction's other bytes are never
// WRPKRU's first byte 0F (a WRPKRU instruction's are 01 and EF, and a
// one-byte instruction has none).
func scanSection(sec *mem.Section, buf []byte, gate GateInfo) []Finding {
	var findings, wrpkru []Finding
	isWRPKRU := func(i int) bool {
		return i+3 <= len(buf) && buf[i] == WRPKRUOpcode[0] && buf[i+1] == WRPKRUOpcode[1] && buf[i+2] == WRPKRUOpcode[2]
	}
	for i := 0; i < len(buf); {
		// Step over runs of one-byte instructions four at a time.
		for i+4 <= len(buf) && !(leadsInsn[buf[i]] || leadsInsn[buf[i+1]] || leadsInsn[buf[i+2]] || leadsInsn[buf[i+3]]) {
			i += 4
		}
		if i == len(buf) {
			break
		}
		switch op := buf[i]; {
		case !leadsInsn[op]:
			i++
		case isWRPKRU(i):
			wrpkru = append(wrpkru, Finding{
				Kind: GadgetWRPKRU, Section: sec.Name, Pkg: sec.Pkg,
				Addr: sec.Base + mem.Addr(i), Detail: "on an instruction boundary",
			})
			i += 3
		case op != opWRPKRU && i+5 <= len(buf):
			if op == opCallRel || op == opJmpRel {
				rel := int32(binary.LittleEndian.Uint32(buf[i+1:]))
				target := sec.Base + mem.Addr(i+5) + mem.Addr(int64(rel))
				if r, in := gate.rangeOf(target); in && !gate.Entries[target] {
					name := "call"
					if op == opJmpRel {
						name = "jmp"
					}
					findings = append(findings, Finding{
						Kind: GadgetMidGate, Section: sec.Name, Pkg: sec.Pkg,
						Addr: sec.Base + mem.Addr(i), Target: target,
						Detail: fmt.Sprintf("%s into %s at +%#x skips the gate entry check", name, r.Name, uint64(target-r.Base)),
					})
				}
			}
			for j := i + 1; j < i+5; j++ {
				if isWRPKRU(j) {
					wrpkru = append(wrpkru, Finding{
						Kind: GadgetEmbedded, Section: sec.Name, Pkg: sec.Pkg,
						Addr: sec.Base + mem.Addr(j), Detail: "inside a multi-byte operand, reachable by misaligned transfer",
					})
				}
			}
			i += 5
		default:
			i++
		}
	}
	return append(findings, wrpkru...)
}
