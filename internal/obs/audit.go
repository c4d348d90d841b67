package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Access levels an audited enclosure was observed to need on a package,
// in increasing privilege order. They mirror the policy syntax's
// R/RW/RWX modifiers; an enclosure that only read a package derives R,
// one that wrote derives RW, one that called into it derives RWX.
const (
	NeedRead  = 1
	NeedWrite = 2
	NeedExec  = 3
)

// catOrder is the canonical rendering order of SysFilter categories,
// matching the kernel's Category.String so derived literals compare
// equal to hand-written ones.
var catOrder = []string{"net", "io", "file", "mem", "proc", "time", "sig", "ipc"}

// enclNeeds accumulates one enclosure's observed requirements.
type enclNeeds struct {
	mods       map[string]int  // package -> Need* level
	cats       map[string]bool // observed syscall categories
	hosts      map[string]bool // observed connect destinations (dotted quads)
	violations int64           // events enforcement would have faulted on
}

// Audit records, instead of faulting, everything an enclosure did that
// its (possibly empty) policy would not allow — and everything it was
// allowed to do — so that Derive can emit the minimal policy literal
// under which the same run is fault-free. One Audit serves a whole
// program; recordings are keyed by environment name.
type Audit struct {
	mu    sync.Mutex
	encls map[string]*enclNeeds
}

// NewAudit returns an empty audit recorder.
func NewAudit() *Audit {
	return &Audit{encls: make(map[string]*enclNeeds)}
}

func (a *Audit) needs(env string) *enclNeeds {
	n := a.encls[env]
	if n == nil {
		n = &enclNeeds{
			mods:  make(map[string]int),
			cats:  make(map[string]bool),
			hosts: make(map[string]bool),
		}
		a.encls[env] = n
	}
	return n
}

// RecordAccess notes that env needed at least `level` access to pkg —
// an access the active policy denied, so the derived policy must grant
// it explicitly.
func (a *Audit) RecordAccess(env, pkg string, level int) {
	a.mu.Lock()
	n := a.needs(env)
	if level > n.mods[pkg] {
		n.mods[pkg] = level
	}
	n.violations++
	a.mu.Unlock()
}

// RecordSys notes that env issued a syscall in the named category.
// Allowed calls are recorded too: the derived SysFilter must cover
// everything the workload does, not just what the audited policy
// happened to deny.
func (a *Audit) RecordSys(env, cat string, denied bool) {
	if cat == "" || cat == "none" {
		return
	}
	a.mu.Lock()
	n := a.needs(env)
	n.cats[cat] = true
	if denied {
		n.violations++
	}
	a.mu.Unlock()
}

// RecordConnect notes that env attempted connect(2) to host.
func (a *Audit) RecordConnect(env string, host uint32) {
	a.mu.Lock()
	a.needs(env).hosts[FormatHost(host)] = true
	a.mu.Unlock()
}

// Violations returns the total number of recorded events that
// enforcement would have faulted on.
func (a *Audit) Violations() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var total int64
	for _, n := range a.encls {
		total += n.violations
	}
	return total
}

// ViolationsFor returns the recorded would-have-faulted event count
// for one environment (0 for environments never audited).
func (a *Audit) ViolationsFor(env string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := a.encls[env]; n != nil {
		return n.violations
	}
	return 0
}

// Envs returns the audited environment names, sorted.
func (a *Audit) Envs() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.encls))
	for name := range a.encls {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Derive emits the minimal policy literal for env in the paper's
// syntax: explicit package modifiers for denied accesses, a SysFilter
// covering every observed category, and — whenever net is granted — a
// connect allowlist of exactly the observed destinations ("none" when
// the enclosure never connected, keeping socket operations available
// while blocking every real connect).
func (a *Audit) Derive(env string) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.encls[env]
	if n == nil {
		return "sys:none"
	}
	var parts []string
	pkgs := make([]string, 0, len(n.mods))
	for pkg := range n.mods {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		mod := "R"
		switch n.mods[pkg] {
		case NeedWrite:
			mod = "RW"
		case NeedExec:
			mod = "RWX"
		}
		parts = append(parts, pkg+":"+mod)
	}
	var cats []string
	for _, c := range catOrder {
		if n.cats[c] {
			cats = append(cats, c)
		}
	}
	if len(cats) == 0 {
		parts = append(parts, "sys:none")
	} else {
		parts = append(parts, "sys:"+strings.Join(cats, ","))
	}
	if n.cats["net"] {
		if len(n.hosts) == 0 {
			parts = append(parts, "connect:none")
		} else {
			hosts := make([]string, 0, len(n.hosts))
			for h := range n.hosts {
				hosts = append(hosts, h)
			}
			sort.Strings(hosts)
			parts = append(parts, "connect:"+strings.Join(hosts, ","))
		}
	}
	return strings.Join(parts, "; ")
}

// Policies derives a literal for every audited environment.
func (a *Audit) Policies() map[string]string {
	out := make(map[string]string)
	for _, env := range a.Envs() {
		out[env] = a.Derive(env)
	}
	return out
}

// FormatHost renders an IPv4 host word as a dotted quad.
func FormatHost(h uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", h>>24&0xff, h>>16&0xff, h>>8&0xff, h&0xff)
}
