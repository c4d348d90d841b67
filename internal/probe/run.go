package probe

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/mem"
	"github.com/litterbox-project/enclosure/internal/pkggraph"
	"github.com/litterbox-project/enclosure/internal/ring"
)

// Divergence is a disagreement flushed out by a trace — the probe
// engine's bug report. Arm names the replay it was found in. Kind names
// the check that fired: "backend" (the enforcing backends disagree
// among themselves), "baseline" (the no-enforcement world faulted, or
// its kernel results drifted before any filter denial), "model" (all
// backends agree on a verdict class the reference model rejects), or
// "digest" (the arm passed the oracle but its outcomes differ from the
// first arm's; Index is then -1, and Op and Outcomes are unset).
type Divergence struct {
	Seed     uint64
	TraceLen int // ops in the generated trace the reproduce line replays
	Arm      string
	Index    int
	Op       Op
	Kind     string
	Detail   string
	Outcomes map[string]string // backend name -> outcome string
}

func (d *Divergence) String() string {
	var b strings.Builder
	if d.Kind == "digest" {
		fmt.Fprintf(&b, "divergence [digest] in arm %s: %s\n", d.Arm, d.Detail)
	} else {
		fmt.Fprintf(&b, "divergence [%s] in arm %s at op %d: %s\n  %s\n", d.Kind, d.Arm, d.Index, d.Op.String(), d.Detail)
		for _, name := range backendNames {
			fmt.Fprintf(&b, "  %-8s %s\n", name, d.Outcomes[name])
		}
	}
	fmt.Fprintf(&b, "  reproduce: enclose probe -seed %d -ops %d", d.Seed, d.TraceLen)
	return b.String()
}

// TraceStats summarises one trace execution.
type TraceStats struct {
	Ops, Skipped      int
	Faults            int // enforcing-backend faults observed
	DynImports        int
	InjectedErrnos    int
	InjectedTransfers int
	Digest            uint64 // FNV over all outcomes: determinism witness
}

// Arm is one way to replay a trace: how its four worlds are built, how
// they are configured, and whether they are swapped mid-trace. Every
// fast path (verdict table, ring drain, snapshot clones, migration) is
// an arm checked against a reference arm by outcome digest. An arm must
// not change verdicts or virtual costs.
type Arm struct {
	// Name labels the arm in divergences; empty reads as "reference".
	Name string
	// Build returns the four worlds of a spec in backendNames order;
	// nil means BuildWorlds.
	Build func(WorldSpec) ([]*World, error)
	// Configure, if set, runs on every world after it is built and
	// before the first operation. A world does not outlive its trace:
	// once the trace ends, a cold-built world's memory goes to the next
	// trace, so the hook may keep the world's Clock and CPU counters but
	// nothing that reads its address space.
	Configure func(*World)
	// Swap, if set, receives every world and its journal after SwapAt
	// executed operations and returns the world to continue on — a
	// restored copy on another node, or the original if the migration
	// failed and execution resumes on the source.
	Swap func(w *World, journal []Executed) (*World, error)
	// SwapAt is the executed-operation count at which Swap runs; zero
	// means half the trace's executed operations.
	SwapAt int
}

func (a Arm) name() string {
	if a.Name == "" {
		return "reference"
	}
	return a.Name
}

// Interpreter replays with the compiled verdict table off: every
// seccomp verdict comes from the reference BPF interpreter.
var Interpreter = Arm{Name: "interpreter", Configure: func(w *World) { w.K.SetFastPath(false) }}

// SequentialDrain replays with ring batching off: every batch entry
// goes through the sequential per-entry gateway.
var SequentialDrain = Arm{Name: "sequential", Configure: func(w *World) { w.LB.SetRingBatching(false) }}

// cold is the default arm list: one reference arm on cold-built worlds.
var cold = []Arm{{}}

// RunTrace replays the trace under the first arm (a cold build if none
// is given) and then under every further arm, applying the
// differential oracle after every operation of every replay. Each
// further arm must also reproduce the first arm's outcome digest. It
// returns the first divergence (nil if every arm stayed in lockstep)
// and the first arm's stats.
func RunTrace(tr Trace, arms ...Arm) (*Divergence, TraceStats, error) {
	if len(arms) == 0 {
		arms = cold
	}
	div, ref, err := arms[0].run(tr)
	if div != nil || err != nil {
		return div, ref, err
	}
	for _, a := range arms[1:] {
		div, st, err := a.run(tr)
		if div != nil || err != nil {
			return div, ref, err
		}
		if st.Digest != ref.Digest {
			return &Divergence{
				Seed: tr.Seed, TraceLen: len(tr.Ops), Arm: a.name(), Index: -1, Kind: "digest",
				Detail: fmt.Sprintf("outcome digest %#x != %s arm's %#x", st.Digest, arms[0].name(), ref.Digest),
			}, ref, nil
		}
	}
	return nil, ref, nil
}

// Executed is one journal entry of a trace execution: an operation that
// actually ran in a world, the outcome it produced there, and whether
// the executor pushed a frame for it. The journal is a world's
// migratable execution history — replaying it against a freshly built
// world of the same spec reproduces the world's exact state, because
// construction and every operation are deterministic.
type Executed struct {
	Op Op `json:"op"`
	// Out is this world's outcome string, the value the replay must
	// reproduce bit-identically or the restore is rejected.
	Out string `json:"out"`
	// Pushed records the executor's frame decision for an OpProlog. It
	// is the *model's* verdict, shared by all four worlds — the baseline
	// world reports "ok" even for a forged token it does not enforce, so
	// the outcome string alone cannot drive the replay's stack.
	Pushed bool `json:"pushed,omitempty"`
}

// executedOps counts the operations of tr the model does not skip —
// the same count in every arm, since skips depend on the model alone.
func executedOps(tr Trace) int {
	model, n := NewModel(tr.Spec), 0
	for _, op := range tr.Ops {
		if !model.Step(op).skip {
			n++
		}
	}
	return n
}

// run replays the trace under this arm alone. An arm that builds its
// worlds cold and never swaps them owns their whole copy-on-write
// family, so it releases the family's pages when the trace ends; warm
// worlds live on across traces, and swapped-in ones come from another
// link.
func (a Arm) run(tr Trace) (*Divergence, TraceStats, error) {
	var stats TraceStats
	swap, migrateAt := a.Swap, a.SwapAt
	if swap != nil && migrateAt == 0 {
		migrateAt = executedOps(tr) / 2
	}
	var worlds []*World
	var err error
	switch {
	case a.Build != nil:
		worlds, err = a.Build(tr.Spec)
	case swap != nil:
		worlds, err = BuildWorlds(tr.Spec)
	default:
		var template *mem.AddressSpace
		worlds, template, err = buildWorlds(tr.Spec)
		if err == nil {
			defer release(template, worlds...)
		}
	}
	if err != nil {
		return nil, stats, fmt.Errorf("%s arm: %w", a.name(), err)
	}
	if a.Configure != nil {
		for _, w := range worlds {
			a.Configure(w)
		}
	}
	model := NewModel(tr.Spec)
	digest := fnv.New64a()
	var journals map[string][]Executed
	if swap != nil {
		journals = make(map[string][]Executed, len(worlds))
	}

	for i, op := range tr.Ops {
		pred := model.Step(op)
		if pred.skip {
			stats.Skipped++
			continue
		}
		if swap != nil && stats.Ops == migrateAt {
			for idx, w := range worlds {
				nw, err := swap(w, journals[w.Name])
				if err != nil {
					return nil, stats, fmt.Errorf("probe: %s arm: migrating %s world at op %d: %w", a.name(), w.Name, i, err)
				}
				worlds[idx] = nw
			}
		}
		stats.Ops++
		isSys := op.Kind == OpSyscall || op.Kind == OpBatch
		deniedBefore := isSys && model.Denied() && pred.class == classOK

		outs := map[string]string{}
		envs := map[string]*litterbox.Env{}
		for _, w := range worlds {
			out, env := execOp(w, op)
			outs[w.Name], envs[w.Name] = out, env
			digest.Write([]byte(out))
		}
		if swap != nil {
			pushed := op.Kind == OpProlog && pred.class == classOK
			for _, w := range worlds {
				journals[w.Name] = append(journals[w.Name], Executed{Op: op, Out: outs[w.Name], Pushed: pushed})
			}
		}
		// A fault aborts the world's domain; reset so the trace continues
		// uniformly (each op is judged independently).
		for _, w := range worlds {
			if _, aborted := w.Dom.Aborted(); aborted {
				w.Dom.Reset()
			}
		}

		report := func(kind, detail string) (*Divergence, TraceStats, error) {
			stats.Digest = digest.Sum64()
			return &Divergence{
				Seed: tr.Seed, TraceLen: len(tr.Ops), Arm: a.name(), Index: i, Op: op,
				Kind: kind, Detail: detail, Outcomes: outs,
			}, stats, nil
		}

		// Layer 1: the enforcing backends must agree exactly.
		if outs["mpk"] != outs["vtx"] || outs["vtx"] != outs["cheri"] {
			return report("backend", "enforcing backends disagree")
		}
		// Layer 2: the baseline enforces nothing, so it can never fault.
		if strings.HasPrefix(outs["baseline"], "fault:") {
			return report("baseline", "no-enforcement baseline raised a fault")
		}
		// Layer 3: until the first filter denial desynchronises the
		// baseline kernel (fd numbering, rng cursor), allowed syscalls —
		// batched or not — must return bit-identical results in all four
		// worlds.
		if isSys && pred.class == classOK && !deniedBefore &&
			outs["baseline"] != outs["mpk"] {
			return report("baseline", "kernel results drifted before any filter denial")
		}
		// Layer 4: the agreed enforcing verdict must match the model.
		if got := classOf(outs["mpk"]); got != pred.class {
			return report("model", fmt.Sprintf("model predicted %q, backends produced %q", pred.class, got))
		}

		if strings.HasPrefix(outs["mpk"], "fault:") {
			stats.Faults++
		}
		switch op.Kind {
		case OpDynImport:
			stats.DynImports++
		case OpProlog:
			if pred.class == classOK { // a forged token faults: nothing was entered
				for _, w := range worlds {
					w.stack = append(w.stack, frame{env: envs[w.Name], encl: op.Encl})
				}
			}
		case OpEpilog:
			for _, w := range worlds {
				w.stack = w.stack[:len(w.stack)-1]
			}
		}
	}
	// Count from the MPK world: after the first filter denial the
	// baseline's dispatch counter legitimately runs ahead, so its fired
	// tallies can differ.
	fired := worlds[1].CPU.Inj.Fired()
	stats.InjectedErrnos = fired.SyscallErrnos
	stats.InjectedTransfers = fired.TransferFaults
	stats.Digest = digest.Sum64()
	return nil, stats, nil
}

// classOf maps an observed outcome string to a model class.
func classOf(out string) string {
	switch {
	case strings.HasPrefix(out, "fault:"):
		return classFault
	case out == "err:inject":
		return classInject
	case out == "ok" || strings.HasPrefix(out, "ret=") || strings.HasPrefix(out, "batch["):
		return classOK
	default:
		return classErr
	}
}

// ExecOp replays one operation in one world and renders the outcome as
// a canonical string — the single-op entry point a migration restore
// uses to replay a journal against a fresh world. The returned env is
// non-nil only for a successful Prolog; the caller decides the frame
// push from the journal's Pushed flag (see Executed).
func ExecOp(w *World, op Op) (string, *litterbox.Env) { return execOp(w, op) }

// execOp replays one operation in one world and renders the outcome as
// a canonical string. Returned env is non-nil only for a successful
// Prolog (the environment the executor must push).
func execOp(w *World, op Op) (string, *litterbox.Env) {
	cur := w.top().env
	switch op.Kind {
	case OpProlog:
		token := w.Img.Enclosures[op.Encl-1].Token
		if op.BadToken {
			token ^= 0xDEAD
		}
		env, err := w.LB.PrologWith(w.CPU, cur, op.Encl, token, w.Cache)
		return outcome(err, "switch"), env

	case OpEpilog:
		fr := w.top()
		back := w.stack[len(w.stack)-2].env
		err := w.LB.Epilog(w.CPU, fr.env, back, fr.encl, w.Img.Enclosures[fr.encl-1].Token)
		return outcome(err, "switch"), nil

	case OpRead:
		return outcome(w.LB.CheckRead(w.CPU, cur, w.targetAddr(op), 4), "read"), nil

	case OpWrite:
		return outcome(w.LB.CheckWrite(w.CPU, cur, w.targetAddr(op), 4), "write"), nil

	case OpExec:
		pl := w.Img.Layout(op.Pkg)
		return outcome(w.LB.CheckExec(w.CPU, cur, op.Pkg, pl.Text.Base), "exec"), nil

	case OpSyscall:
		ret, errno, err := w.LB.SyscallGateway(w.CPU, cur, litterbox.SyscallReq{Nr: op.Nr, Args: w.argsFor(op), CallerPkg: "probe"})
		if err != nil {
			return outcome(err, "syscall"), nil
		}
		return fmt.Sprintf("ret=%d errno=%d", ret, errno), nil

	case OpBatch:
		entries := make([]ring.Entry, len(op.Batch))
		for i, s := range op.Batch {
			entries[i] = ring.Entry{Nr: s.Nr, Args: w.argsFor(s), Tag: uint64(i), Runtime: s.Runtime}
		}
		out := make([]ring.Completion, len(entries))
		err := w.LB.SyscallBatch(w.CPU, cur, "probe", entries, out)
		parts := make([]string, len(out))
		for i, c := range out {
			switch {
			case err != nil && c.Errno == kernel.ECANCELED:
				parts[i] = "cancel"
			case err != nil && c.Errno == kernel.ESECCOMP:
				parts[i] = "deny"
			default:
				parts[i] = fmt.Sprintf("ret=%d errno=%d", c.Ret, c.Errno)
			}
		}
		s := fmt.Sprintf("batch[%s]", strings.Join(parts, "|"))
		if err == nil {
			return s, nil // per-entry results are the lockstep comparand
		}
		return outcome(err, s), nil

	case OpTransfer:
		dest := kernel.HeapOwner
		if op.Pkg != "" {
			dest = op.Pkg
		}
		return outcome(w.LB.Transfer(w.CPU, w.Spans[op.Span], dest), "transfer"), nil

	case OpDynImport:
		return w.dynImport(op), nil

	case OpArmErrno:
		w.CPU.Inj.ArmSyscallErrno(op.N, op.Errno)
		return "ok", nil

	case OpArmTransfer:
		w.CPU.Inj.ArmTransferFault(op.N)
		return "ok", nil
	}
	return "err:unknown-op", nil
}

// dynImport admits a fresh package mid-trace and makes it visible to
// the importing enclosure's base environment. The trailing InstallEnv
// mirrors the documented contract that importers pick new rights up at
// their next switch: the runtime performs the import, so control
// re-enters the current environment through a switch, refreshing
// register state (the MPK PKRU) that in-place table updates do not.
func (w *World) dynImport(op Op) string {
	p := &pkggraph.Package{
		Name:   op.Pkg,
		Funcs:  []string{"f"},
		Vars:   map[string]int{"v": 64},
		Consts: map[string][]byte{"c": []byte("dyn")},
	}
	if err := w.Img.Graph.AddIncremental(p); err != nil {
		return "err:dyn"
	}
	pl, err := w.Img.PlaceDynamic(p)
	if err != nil {
		return "err:dyn"
	}
	env, err := w.LB.EnvForEnclosure(op.Encl)
	if err != nil {
		return "err:dyn"
	}
	if err := w.LB.AddDynamicPackage(w.CPU, p, pl.Sections(), []*litterbox.Env{env}); err != nil {
		return "err:dyn"
	}
	if err := w.LB.InstallEnv(w.CPU, w.top().env); err != nil {
		return "err:dyn"
	}
	return "ok"
}

// targetAddr resolves a memory op to a concrete probe address: inside
// the span, or 8 bytes into the package's rodata/data section.
func (w *World) targetAddr(op Op) mem.Addr {
	if op.Span >= 0 {
		return w.Spans[op.Span].Base + 8
	}
	pl := w.Img.Layout(op.Pkg)
	if op.Sec == 0 {
		return pl.ROData.Base + 8
	}
	return pl.Data.Base + 8
}

// outcome canonicalises an error from a framework entry point.
func outcome(err error, opName string) string {
	var f *litterbox.Fault
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &f):
		return "fault:" + opName
	case errors.Is(err, litterbox.ErrInjectedTransfer):
		return "err:inject"
	case errors.Is(err, litterbox.ErrAborted):
		return "err:aborted"
	case errors.Is(err, litterbox.ErrEscalation):
		return "err:escalation"
	default:
		return "err:other"
	}
}

// SweepStats aggregates a multi-trace sweep over the first arm's
// replays.
type SweepStats struct {
	Traces, Ops, Skipped int
	Faults               int
	DynImports           int
	DynImportTraces      int
	InjectionTraces      int
	InjectedErrnos       int
	InjectedTransfers    int
}

// Sweep runs n independent traces derived from the base seed through
// RunTrace under the given arms and returns the first divergence found,
// if any. Per-trace seeds are decorrelated by the golden-ratio
// increment so neighbouring sweeps do not share prefixes.
func Sweep(seed uint64, n, opsPerTrace int, arms ...Arm) (SweepStats, *Divergence, error) {
	var stats SweepStats
	for i := 0; i < n; i++ {
		tr := Gen(seed+uint64(i)*0x9E3779B97F4A7C15, opsPerTrace)
		div, ts, err := RunTrace(tr, arms...)
		if err != nil {
			return stats, nil, fmt.Errorf("probe: trace %d (seed %#x): %w", i, tr.Seed, err)
		}
		stats.Traces++
		stats.Ops += ts.Ops
		stats.Skipped += ts.Skipped
		stats.Faults += ts.Faults
		stats.DynImports += ts.DynImports
		if ts.DynImports > 0 {
			stats.DynImportTraces++
		}
		if ts.InjectedErrnos > 0 || ts.InjectedTransfers > 0 {
			stats.InjectionTraces++
		}
		stats.InjectedErrnos += ts.InjectedErrnos
		stats.InjectedTransfers += ts.InjectedTransfers
		if div != nil {
			return stats, div, nil
		}
	}
	return stats, nil, nil
}

// SweepConfigured is Sweep with one configured arm. It stays only
// because the benchmark module, which changes separately, calls it.
func SweepConfigured(seed uint64, n, opsPerTrace int, configure func(*World)) (SweepStats, *Divergence, error) {
	return Sweep(seed, n, opsPerTrace, Arm{Configure: configure})
}

// Shrink reduces a diverging trace to a locally minimal reproducer
// with greedy delta debugging: repeatedly drop chunks of operations,
// keeping any candidate that still diverges in the same arm. Because
// the model decides skips, every subsequence of a trace is a valid
// trace, so removal can never produce an ill-formed program. The
// returned divergence's reproduce line replays the unshrunk trace:
// the shrunk one is not a generator output.
func Shrink(tr Trace, arms ...Arm) (Trace, *Divergence) {
	div, _, err := RunTrace(tr, arms...)
	if div == nil || err != nil {
		return tr, div
	}
	best, bestDiv := tr, div
	for chunk := len(best.Ops) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(best.Ops); {
			cand := best
			cand.Ops = append(append([]Op{}, best.Ops[:start]...), best.Ops[start+chunk:]...)
			if d, _, err := RunTrace(cand, arms...); err == nil && d != nil && d.Arm == div.Arm {
				best, bestDiv = cand, d
			} else {
				start += chunk
			}
		}
	}
	bestDiv.TraceLen = len(tr.Ops)
	return best, bestDiv
}
