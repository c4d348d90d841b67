package enclosure_test

import (
	"fmt"
	"math"

	"github.com/litterbox-project/enclosure"
	"github.com/litterbox-project/enclosure/internal/engine"
)

// Example reproduces the paper's Figure 1 in miniature: an enclosure
// grants a public package read-only access to a secret and no system
// calls; the legitimate computation succeeds and a tampering attempt
// faults.
func Example() {
	b := enclosure.New(enclosure.MPK)
	b.Package(enclosure.PackageSpec{
		Name:    "main",
		Imports: []string{"libFx"},
		Vars:    map[string]int{"image": 8},
	})
	b.Package(enclosure.PackageSpec{
		Name: "libFx",
		Funcs: map[string]enclosure.Func{
			"Invert": func(t *enclosure.Task, args ...enclosure.Value) ([]enclosure.Value, error) {
				in := args[0].(enclosure.Ref)
				data := t.ReadBytes(in)
				for i := range data {
					data[i] = ^data[i]
				}
				return []enclosure.Value{t.NewBytes(data)}, nil
			},
		},
	})
	b.Enclosure("rcl", "main", "main:R; sys:none",
		func(t *enclosure.Task, args ...enclosure.Value) ([]enclosure.Value, error) {
			return t.Call("libFx", "Invert", args...)
		}, "libFx")
	prog, err := b.Build()
	if err != nil {
		panic(err)
	}

	err = prog.Run(func(t *enclosure.Task) error {
		img, err := prog.VarRef("main", "image")
		if err != nil {
			return err
		}
		t.WriteBytes(img, []byte{0x00, 0x0F, 0xF0, 0xFF, 1, 2, 3, 4})
		out, err := prog.MustEnclosure("rcl").Call(t, img)
		if err != nil {
			return err
		}
		fmt.Printf("inverted: %x\n", t.ReadBytes(out[0].(enclosure.Ref))[:4])
		return nil
	})
	if err != nil {
		panic(err)
	}
	// Output: inverted: fff00f00
}

// ExampleAsFault shows how a policy violation surfaces: the enclosure
// writes the read-only secret, the program aborts, and Run returns the
// fault.
func ExampleAsFault() {
	b := enclosure.New(enclosure.VTX)
	b.Package(enclosure.PackageSpec{Name: "main", Imports: []string{"lib"},
		Vars: map[string]int{"secret": 8}})
	b.Package(enclosure.PackageSpec{Name: "lib", Funcs: map[string]enclosure.Func{
		"Tamper": func(t *enclosure.Task, args ...enclosure.Value) ([]enclosure.Value, error) {
			t.Store8(args[0].(enclosure.Ref).Addr, 0xFF)
			return nil, nil
		},
	}})
	b.Enclosure("e", "main", "main:R; sys:none",
		func(t *enclosure.Task, args ...enclosure.Value) ([]enclosure.Value, error) {
			return t.Call("lib", "Tamper", args...)
		}, "lib")
	prog, err := b.Build()
	if err != nil {
		panic(err)
	}
	err = prog.Run(func(t *enclosure.Task) error {
		secret, _ := prog.VarRef("main", "secret")
		_, err := prog.MustEnclosure("e").Call(t, secret)
		return err
	})
	if f, ok := enclosure.AsFault(err); ok {
		fmt.Println("violation:", f.Op)
	}
	// Output: violation: write
}

// ExampleParsePolicy demonstrates the policy literal syntax.
func ExampleParsePolicy() {
	p, _ := enclosure.ParsePolicy("secrets:R; sys:net,io; connect:10.0.0.2")
	fmt.Println(p.String())
	// Output: secrets:R; sys:net,io; connect:10.0.0.2
}

// ExampleNewPolicy builds the README's policy fluently; the literal it
// renders is what ParsePolicy accepts.
func ExampleNewPolicy() {
	fmt.Println(enclosure.NewPolicy().Read("secrets").Sys("net", "io").ConnectNone().String())
	// Output: secrets:R; sys:net,io; connect:none
}

// ExampleWithSyscallRing queues system calls inside an enclosure and
// drains them as one batch: one amortized trap (and on LB_VTX one VM
// exit) for the three entries.
func ExampleWithSyscallRing() {
	b := enclosure.New(enclosure.VTX, enclosure.WithSyscallRing(32))
	b.Package(enclosure.PackageSpec{Name: "main", Imports: []string{"lib"}})
	b.Package(enclosure.PackageSpec{Name: "lib"})
	b.Enclosure("batch", "main", "sys:proc",
		func(t *enclosure.Task, args ...enclosure.Value) ([]enclosure.Value, error) {
			for tag := uint64(1); tag <= 3; tag++ {
				t.SubmitSyscall(tag, enclosure.SysGetpid) // queue, no trap
			}
			for _, c := range t.FlushSyscalls() { // one amortized trap
				fmt.Printf("tag %d: pid %d, %v\n", c.Tag, c.Ret, c.Errno)
			}
			return nil, nil
		}, "lib")
	prog, err := b.Build()
	if err != nil {
		panic(err)
	}
	err = prog.Run(func(t *enclosure.Task) error {
		_, err := prog.MustEnclosure("batch").Call(t)
		return err
	})
	if err != nil {
		panic(err)
	}
	c := prog.Counters().Snapshot()
	fmt.Printf("%d batch, %d entries, %d VM exit\n", c.RingBatches, c.RingEntries, c.VMExits)
	// Output:
	// tag 1: pid 4242, ok
	// tag 2: pid 4242, ok
	// tag 3: pid 4242, ok
	// 1 batch, 3 entries, 1 VM exit
}

// ExampleWithWarmPool runs every job an engine admits in its own
// snapshot clone: each tenant finds the package variable as Build left
// it, whatever the previous tenant on its worker wrote.
func ExampleWithWarmPool() {
	b := enclosure.New(enclosure.MPK, enclosure.WithWarmPool(4))
	b.Package(enclosure.PackageSpec{Name: "main", Vars: map[string]int{"tenant": 8}})
	prog, err := b.Build()
	if err != nil {
		panic(err)
	}
	e := engine.New(prog, engine.Opts{Workers: 2})
	defer e.Close()
	fresh := 0
	for i := 1; i <= 6; i++ {
		err := e.Submit(engine.JobSpec{Pref: i % 2, Name: "job", Fn: func(t *enclosure.Task) error {
			marker, err := t.Prog().VarRef("main", "tenant")
			if err != nil {
				return err
			}
			if t.Load64(marker.Addr) == 0 {
				fresh++
			}
			t.Store64(marker.Addr, uint64(i))
			return nil
		}})
		if err != nil {
			panic(err)
		}
	}
	if err := e.StepUntil(math.MaxInt64, nil); err != nil {
		panic(err)
	}
	stats, _ := e.WarmStats()
	fmt.Printf("%d of 6 jobs saw a fresh tenant variable\n", fresh)
	fmt.Printf("pool: %d clones, %d recycled instances reused\n", stats.Misses, stats.Hits)
	// Output:
	// 6 of 6 jobs saw a fresh tenant variable
	// pool: 2 clones, 4 recycled instances reused
}

// ExampleNewHandoff is the secured-callback pattern under the
// ownership rule: the enclosed server hands a request to a trusted
// handler goroutine and waits for the reply inside the enclosure. The
// hand-off lets the handler run for the wait; a raw channel would not.
func ExampleNewHandoff() {
	b := enclosure.New(enclosure.MPK)
	b.Package(enclosure.PackageSpec{Name: "main", Imports: []string{"lib"}})
	b.Package(enclosure.PackageSpec{Name: "lib"})
	reqs, replies := enclosure.NewHandoff[string](1), enclosure.NewHandoff[int](1)
	b.Enclosure("server", "main", "sys:none",
		func(t *enclosure.Task, args ...enclosure.Value) ([]enclosure.Value, error) {
			reqs.Send(t, "GET /index.html")
			n, _ := replies.Recv(t)
			return []enclosure.Value{n}, nil
		}, "lib")
	prog, err := b.Build()
	if err != nil {
		panic(err)
	}
	err = prog.Run(func(t *enclosure.Task) error {
		handler := t.Go("handler", func(t *enclosure.Task) error {
			for {
				req, ok := reqs.Recv(t)
				if !ok {
					return nil
				}
				t.Compute(1000) // trusted work, charged to the program clock
				replies.Send(t, len(req))
			}
		})
		out, err := prog.MustEnclosure("server").Call(t)
		if err != nil {
			return err
		}
		fmt.Println("reply:", out[0])
		reqs.Close(t)
		return handler.Join(t)
	})
	if err != nil {
		panic(err)
	}
	// Output: reply: 15
}
