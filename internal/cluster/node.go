package cluster

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// NodeState is a node's membership lifecycle position.
type NodeState int32

// Node lifecycle states.
const (
	// NodeJoining: built, replicating the image, not yet routable.
	NodeJoining NodeState = iota
	// NodeActive: in the ring, accepting requests.
	NodeActive
	// NodeDraining: out of the ring, stepping its queued requests.
	NodeDraining
	// NodeLeft: drained and stopped.
	NodeLeft
)

// String renders the state.
func (s NodeState) String() string {
	switch s {
	case NodeJoining:
		return "joining"
	case NodeActive:
		return "active"
	case NodeDraining:
		return "draining"
	case NodeLeft:
		return "left"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ctrlPort is every node's control-plane port on the cluster network.
const ctrlPort = 7100

// Node is one engine node: a full program instance (its own backend,
// kernel, address space — the node's fault domain boundary), an engine
// over it, a content-addressed image blob store, and a control-plane
// server on the cluster network for replication and migration traffic.
type Node struct {
	id   string
	idx  int
	c    *Cluster
	prog *core.Program
	eng  *engine.Engine

	ctrlAddr simnet.Addr
	ctrlLn   *simnet.Listener
	ctrlWG   sync.WaitGroup

	// mu serialises the node's engine: admission, stepping and drain
	// all hold it, so one goroutine at a time steps the node. It also
	// guards pref.
	mu    sync.Mutex
	state atomic.Int32 // NodeState; read lock-free by the balancer
	pref  int          // round-robin worker affinity

	routed     atomic.Int64 // requests this node admitted
	migratedIn atomic.Int64 // sessions migrated onto this node

	stop func() // app stopper installed by Opts.Start

	// store is the node's content-addressed image blob store: digest →
	// blob. Replication ships only digests the registry lacks.
	storeMu sync.Mutex
	store   map[string]blob

	manifest []blobMeta // this node's image manifest, fixed at build
}

// newNode builds a node around prog: engine, image manifest, and the
// control server on the cluster network. The node starts in
// NodeJoining; membership (cluster.AddNode) replicates the image,
// starts the app, and activates it.
func newNode(c *Cluster, idx int, prog *core.Program) (*Node, error) {
	n := &Node{
		id:   fmt.Sprintf("node%d", idx),
		idx:  idx,
		c:    c,
		prog: prog,
		eng: engine.New(prog, engine.Opts{
			Workers:    c.opts.WorkersPerNode,
			QueueDepth: c.opts.QueueDepth,
		}),
		store: make(map[string]blob),
	}
	var err error
	n.manifest, err = imageManifest(prog)
	if err != nil {
		n.eng.Close()
		return nil, fmt.Errorf("cluster: %s: %w", n.id, err)
	}
	// Control endpoint: a distinct host per node on the cluster's
	// control-plane network, one well-known port.
	n.ctrlAddr = simnet.Addr{Host: simnet.HostIP(10, 1, 0, byte(idx+1)), Port: ctrlPort}
	n.ctrlLn, err = c.net.Listen(n.ctrlAddr)
	if err != nil {
		n.eng.Close()
		return nil, fmt.Errorf("cluster: %s: control listen: %w", n.id, err)
	}
	n.ctrlWG.Add(1)
	go n.ctrlServe()
	return n, nil
}

// ID returns the node's cluster-wide identifier.
func (n *Node) ID() string { return n.id }

// Prog returns the node's program instance.
func (n *Node) Prog() *core.Program { return n.prog }

// Engine returns the node's engine.
func (n *Node) Engine() *engine.Engine { return n.eng }

// State returns the node's lifecycle state.
func (n *Node) State() NodeState { return NodeState(n.state.Load()) }

func (n *Node) setState(s NodeState) { n.state.Store(int32(s)) }

// Load is the node's queued requests: admitted, not yet stepped. The
// balancer ranks by virtual-time load first and uses this to break ties.
func (n *Node) Load() int { return n.eng.Load() }

// submit admits spec under the node lock with round-robin worker
// affinity.
func (n *Node) submit(spec engine.JobSpec) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	spec.Pref = n.pref
	n.pref++
	if err := n.eng.Submit(spec); err != nil {
		return err
	}
	n.routed.Add(1)
	return nil
}

// stepUntil steps the node's engine up to virtual time T under the
// node lock (engine.StepUntil).
func (n *Node) stepUntil(T int64, each func(engine.StepResult) error) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.StepUntil(T, each)
}

// drain takes the node out of service without dropping work: under the
// node lock it refuses new admissions, steps every queued request to
// completion (engine.Close), then stops the app.
func (n *Node) drain() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s := n.State(); s == NodeLeft || s == NodeDraining {
		return
	}
	n.setState(NodeDraining)
	n.eng.Close()
	if n.stop != nil {
		n.stop()
	}
	n.setState(NodeLeft)
}

// shutdownCtrl stops the control server.
func (n *Node) shutdownCtrl() {
	_ = n.ctrlLn.Close()
	n.ctrlWG.Wait()
}

// ctrlMsg is one control-plane message. A request carries Kind plus the
// kind-specific fields; a response is "ok", "err", or a kind-specific
// reply. JSON keeps the nil-versus-empty distinction env snapshots
// depend on.
type ctrlMsg struct {
	Kind    string          `json:"kind"`
	Node    string          `json:"node,omitempty"`
	Digest  string          `json:"digest,omitempty"`
	Name    string          `json:"name,omitempty"`
	Data    []byte          `json:"data,omitempty"`
	Session string          `json:"session,omitempty"`
	State   json.RawMessage `json:"state,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// ctrlServe accepts control connections until the listener closes.
func (n *Node) ctrlServe() {
	defer n.ctrlWG.Done()
	for {
		conn, err := n.ctrlLn.Accept()
		if err != nil {
			return
		}
		n.ctrlWG.Add(1)
		go func() {
			defer n.ctrlWG.Done()
			n.ctrlConn(simnet.NewMsgConn(conn))
		}()
	}
}

// ctrlConn serves one control connection: strict request/response.
func (n *Node) ctrlConn(mc *simnet.MsgConn) {
	defer mc.Close()
	for {
		raw, err := mc.Recv()
		if err != nil {
			return
		}
		resp, ok := n.ctrlDecode(raw)
		if !n.reply(mc, resp) || !ok {
			return
		}
	}
}

// ctrlDecode answers one raw control message. A malformed one gets an
// error reply and ok false: the connection ends after it.
func (n *Node) ctrlDecode(raw []byte) (resp ctrlMsg, ok bool) {
	var req ctrlMsg
	if err := json.Unmarshal(raw, &req); err != nil {
		return ctrlMsg{Kind: "err", Error: "malformed control message"}, false
	}
	return n.ctrlHandle(req), true
}

// shortDigest is a digest's first twelve characters, for messages; a
// peer's claimed digest may be shorter.
func shortDigest(d string) string { return d[:min(len(d), 12)] }

func (n *Node) reply(mc *simnet.MsgConn, m ctrlMsg) bool {
	raw, err := json.Marshal(m)
	if err != nil {
		return false
	}
	return mc.Send(raw) == nil
}

// ctrlHandle dispatches one control request.
func (n *Node) ctrlHandle(req ctrlMsg) ctrlMsg {
	switch req.Kind {
	case "ping":
		return ctrlMsg{Kind: "ok", Node: n.id}

	case "manifest":
		// The registry half of replication: report which blobs this
		// node's store already holds.
		data, err := json.Marshal(n.storeManifest())
		if err != nil {
			return ctrlMsg{Kind: "err", Error: err.Error()}
		}
		return ctrlMsg{Kind: "manifest", Node: n.id, Data: data}

	case "blob":
		// Content addressing is the integrity check: a shipped blob
		// must hash to its claimed digest or the store rejects it.
		if got := blobDigest(req.Data); got != req.Digest {
			return ctrlMsg{Kind: "err", Error: fmt.Sprintf(
				"blob %s: content hashes to %s", shortDigest(req.Digest), shortDigest(got))}
		}
		n.putBlob(req.Digest, blob{name: req.Name, data: req.Data})
		return ctrlMsg{Kind: "ok", Node: n.id}

	case "migrate":
		// Policy re-verification on the target: the shipped env state
		// must match this node's own program exactly, or resuming the
		// session here would run it under a diverged policy. Heap spans
		// are not compared — they are each node's own request history,
		// not policy (litterbox.VerifyPolicy).
		var exp stateExportWire
		if err := json.Unmarshal(req.State, &exp); err != nil {
			return ctrlMsg{Kind: "err", Error: "malformed env state: " + err.Error()}
		}
		if err := n.prog.VerifyEnvPolicy(exp.State); err != nil {
			return ctrlMsg{Kind: "err", Error: err.Error()}
		}
		if err := n.verifyImageDigests(exp.Image); err != nil {
			return ctrlMsg{Kind: "err", Error: err.Error()}
		}
		n.migratedIn.Add(1)
		return ctrlMsg{Kind: "ok", Node: n.id}
	}
	return ctrlMsg{Kind: "err", Error: fmt.Sprintf("unknown control request %q", req.Kind)}
}

// dialCtrl opens a control connection to peer.
func (n *Node) dialCtrl(peer *Node) (*simnet.MsgConn, error) {
	conn, err := n.c.net.Dial(n.ctrlAddr.Host, peer.ctrlAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s dialing %s: %w", n.id, peer.id, err)
	}
	return simnet.NewMsgConn(conn), nil
}

// roundTrip sends one request and reads one response.
func roundTrip(mc *simnet.MsgConn, req ctrlMsg) (ctrlMsg, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return ctrlMsg{}, err
	}
	if err := mc.Send(raw); err != nil {
		return ctrlMsg{}, err
	}
	got, err := mc.Recv()
	if err != nil {
		return ctrlMsg{}, err
	}
	var resp ctrlMsg
	if err := json.Unmarshal(got, &resp); err != nil {
		return ctrlMsg{}, err
	}
	if resp.Kind == "err" {
		return resp, fmt.Errorf("cluster: control request %q refused: %s", req.Kind, resp.Error)
	}
	return resp, nil
}
