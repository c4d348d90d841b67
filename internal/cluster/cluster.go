package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
	"github.com/litterbox-project/enclosure/internal/obs"
	"github.com/litterbox-project/enclosure/internal/simnet"
)

// ErrNoNodes reports a request with no active node to route to.
var ErrNoNodes = errors.New("cluster: no active nodes")

// Opts configures a cluster.
type Opts struct {
	// Nodes is the initial node count (default 1).
	Nodes int
	// WorkersPerNode is each node's engine worker count (0: the
	// program's default).
	WorkersPerNode int
	// QueueDepth is each engine's per-worker queue bound (0: default).
	QueueDepth int
	// VirtualNodes is the ring's per-member point count (0: 64).
	VirtualNodes int
	// Replication is the number of candidate nodes a session hashes to
	// (0: 2 — power-of-two-choices). The balancer picks the least
	// loaded candidate and falls down the list on backpressure.
	Replication int
	// Seed fixes the ring's hash seed: routing is a deterministic
	// function of (seed, members, session) at equal load.
	Seed uint64
	// Build constructs one node's program. Required. Every node must be
	// built identically — replication verifies this content-addressed
	// at join and rejects heterogeneous nodes.
	Build func() (*core.Program, error)
	// WarmJoin replicates node programs from a snapshot template: the
	// first AddNode cold-builds via Build and captures the result as a
	// core.Template; every node — including the first — then runs a
	// clone instantiated from it, so later joins skip the cold build
	// entirely and node identity is by construction (clones are
	// bit-identical, which the content-addressed blob replication then
	// verifies for free). A program that cannot be snapshot-cloned
	// falls back to per-node cold builds transparently.
	WarmJoin bool
	// Start, when non-nil, starts the node's application on its
	// program (Node.Prog) and returns a stopper invoked at drain, after
	// the node has stepped its queued requests.
	Start func(n *Node) (stop func(), err error)
	// Trace, when non-nil, receives cluster control-plane events
	// (route, migrate, join, leave).
	Trace *obs.Trace
}

// Cluster is a set of engine nodes behind a consistent-hash balancer.
type Cluster struct {
	opts Opts
	net  *simnet.Net // control plane, distinct from every node's data plane

	mu     sync.RWMutex
	ring   *Ring
	nodes  map[string]*Node
	order  []string          // join order, for metrics and demos
	pins   map[string]string // session → node, set by migration
	nextID int

	routed     atomic.Int64
	rerouted   atomic.Int64
	migrations atomic.Int64
	joins      atomic.Int64
	leaves     atomic.Int64

	// tmplMu guards the warm-join template (built lazily on the first
	// AddNode when opts.WarmJoin is set; nil after a failed capture,
	// which disables warm joins for the cluster's lifetime).
	tmplMu     sync.Mutex
	tmpl       *core.Template
	tmplTried  bool
	warmJoined atomic.Int64 // nodes instantiated from the template

	blobsShipped atomic.Int64
	blobsDeduped atomic.Int64
	bytesShipped atomic.Int64
	bytesDeduped atomic.Int64
}

// New starts a cluster with opts.Nodes nodes.
func New(opts Opts) (*Cluster, error) {
	if opts.Build == nil {
		return nil, errors.New("cluster: Opts.Build is required")
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	if opts.Replication <= 0 {
		opts.Replication = 2
	}
	c := &Cluster{
		opts:  opts,
		net:   simnet.New(),
		ring:  NewRing(opts.Seed, opts.VirtualNodes),
		nodes: make(map[string]*Node),
		pins:  make(map[string]string),
	}
	for i := 0; i < opts.Nodes; i++ {
		if _, err := c.AddNode(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// AddNode builds a node, replicates the image from the registry (the
// cluster's first node), starts its app, and joins it to the ring.
// buildNodeProg produces the program a joining node will run. Without
// WarmJoin this is a plain opts.Build call. With WarmJoin the first
// join cold-builds and captures the result as a snapshot template;
// that node and every later one run a clone instantiated from it, so
// joins after the first skip the cold build. Capture failure (a
// backend that cannot be snapshot-cloned) permanently reverts the
// cluster to cold builds.
func (c *Cluster) buildNodeProg() (*core.Program, error) {
	if !c.opts.WarmJoin {
		return c.opts.Build()
	}
	c.tmplMu.Lock()
	defer c.tmplMu.Unlock()
	if !c.tmplTried {
		c.tmplTried = true
		cold, err := c.opts.Build()
		if err != nil {
			return nil, err
		}
		t, err := cold.Snapshot()
		if err != nil {
			// Not cloneable: run the cold build we already paid for
			// and stay cold for the cluster's lifetime.
			return cold, nil
		}
		c.tmpl = t
	}
	if c.tmpl == nil {
		return c.opts.Build()
	}
	prog, err := c.tmpl.Instantiate()
	if err != nil {
		return nil, fmt.Errorf("cluster: instantiating warm node: %w", err)
	}
	c.warmJoined.Add(1)
	return prog, nil
}

func (c *Cluster) AddNode() (*Node, error) {
	c.mu.Lock()
	idx := c.nextID
	c.nextID++
	c.mu.Unlock()

	prog, err := c.buildNodeProg()
	if err != nil {
		return nil, fmt.Errorf("cluster: building node%d: %w", idx, err)
	}
	n, err := newNode(c, idx, prog)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Node, error) {
		n.shutdownCtrl()
		n.eng.Close()
		return nil, err
	}

	// Image replication: the first node seeds the registry; every later
	// node reconciles against it, shipping only missing blobs.
	if registry := c.registry(); registry != nil {
		shipped, deduped, sb, db, err := n.replicateTo(registry)
		c.blobsShipped.Add(int64(shipped))
		c.blobsDeduped.Add(int64(deduped))
		c.bytesShipped.Add(sb)
		c.bytesDeduped.Add(db)
		if err != nil {
			return fail(err)
		}
	} else {
		shipped, bytes, err := n.seedStore()
		if err != nil {
			return fail(err)
		}
		c.blobsShipped.Add(int64(shipped))
		c.bytesShipped.Add(bytes)
	}

	if c.opts.Start != nil {
		stop, err := c.opts.Start(n)
		if err != nil {
			return fail(fmt.Errorf("cluster: starting %s: %w", n.id, err))
		}
		n.stop = stop
	}

	n.setState(NodeActive)
	c.mu.Lock()
	c.nodes[n.id] = n
	c.order = append(c.order, n.id)
	c.ring.Add(n.id)
	c.mu.Unlock()
	c.joins.Add(1)
	c.emit(obs.Event{Kind: obs.KindJoin, Worker: n.id, Detail: fmt.Sprintf("ring size %d", c.ring.Size())})
	return n, nil
}

// registry returns the cluster's registry node: the oldest member still
// present, nil when the cluster is empty.
func (c *Cluster) registry() *Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, id := range c.order {
		if n, ok := c.nodes[id]; ok {
			return n
		}
	}
	return nil
}

// RemoveNode drains a node and removes it from the cluster: it leaves
// the ring first (no new routes), steps every queued request to
// completion (the engine's Close), and only then stops.
// Zero requests are dropped by construction; the drain test asserts the
// conservation.
func (c *Cluster) RemoveNode(id string) error {
	c.mu.Lock()
	n, ok := c.nodes[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no node %q", id)
	}
	c.ring.Remove(id)
	for s, pin := range c.pins {
		if pin == id {
			delete(c.pins, s)
		}
	}
	c.mu.Unlock()

	n.drain()
	n.shutdownCtrl()

	c.mu.Lock()
	delete(c.nodes, id)
	for i, oid := range c.order {
		if oid == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	c.leaves.Add(1)
	c.emit(obs.Event{Kind: obs.KindLeave, Worker: id, Detail: fmt.Sprintf("ring size %d", c.ring.Size())})
	return nil
}

// Node returns a member by ID.
func (c *Cluster) Node(id string) (*Node, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.nodes[id]
	return n, ok
}

// Nodes returns the members in join order.
func (c *Cluster) Nodes() []*Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Node, 0, len(c.order))
	for _, id := range c.order {
		if n, ok := c.nodes[id]; ok {
			out = append(out, n)
		}
	}
	return out
}

// Size returns the member count.
func (c *Cluster) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// candidates returns the session's routing candidates in preference
// order: its migration pin first (if active), then the ring's
// Replication owners, least loaded first. Load is read on the virtual
// timeline (Engine.PredictVT), which counts routed but unstepped work;
// the queued-job count breaks ties (a node with no service history
// yet), then ring order (a stable sort keeps the hash order, so routing
// at equal load is deterministic under the seed).
func (c *Cluster) candidates(session string) []*Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Node
	var pinned *Node
	if id, ok := c.pins[session]; ok {
		if n := c.nodes[id]; n != nil && n.State() == NodeActive {
			pinned = n
			out = append(out, n)
		}
	}
	ids := c.ring.Lookup(session, c.opts.Replication)
	ranked := make([]*Node, 0, len(ids))
	for _, id := range ids {
		if n := c.nodes[id]; n != nil && n != pinned {
			ranked = append(ranked, n)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		a, b := ranked[i].Engine().PredictVT(), ranked[j].Engine().PredictVT()
		return a < b || (a == b && ranked[i].Load() < ranked[j].Load())
	})
	return append(out, ranked...)
}

// Route returns the node a session would be dispatched to right now.
func (c *Cluster) Route(session string) (*Node, error) {
	cands := c.candidates(session)
	for _, n := range cands {
		if n.State() == NodeActive {
			return n, nil
		}
	}
	return nil, ErrNoNodes
}

// Submit is the cluster's one admission entry point, the balancer in
// front of engine.Submit: it routes spec by session and admits it,
// unstepped, to a node, which serves it on whichever of its workers
// steps it. Consistent-hash affinity picks the candidates and
// least-loaded ranks them (candidates); typed backpressure or a closing
// engine falls down the list, so a saturated or draining node re-routes
// instead of dropping. The node sets spec.Pref round-robin over its
// workers. When every candidate refuses, the error wraps the last
// refusal (ErrNoNodes when there was no active candidate), to be told
// apart with errors.Is as on an engine. The caller steps the cluster
// (StepUntil).
func (c *Cluster) Submit(session string, spec engine.JobSpec) (*Node, error) {
	var lastErr error = ErrNoNodes
	attempt := 0
	for _, n := range c.candidates(session) {
		if n.State() != NodeActive {
			continue // draining: the next candidate takes it
		}
		if attempt > 0 {
			c.rerouted.Add(1)
		}
		attempt++
		if err := n.submit(spec); err != nil {
			if errors.Is(err, engine.ErrBackpressure) || errors.Is(err, engine.ErrClosed) {
				// Node saturated (or closed under us): transient, re-route.
				lastErr = err
				continue
			}
			return nil, err
		}
		c.routed.Add(1)
		c.emit(obs.Event{Kind: obs.KindRoute, Worker: n.id, Detail: session})
		return n, nil
	}
	return nil, fmt.Errorf("cluster: session %q: every candidate refused: %w", session, lastErr)
}

// StepUntil steps every member's engine up to virtual time T
// (engine.StepUntil), in join order. Nodes run in parallel, each on its
// own workers' clocks, so stepping them one after another is exact.
func (c *Cluster) StepUntil(T int64, each func(engine.StepResult) error) error {
	for _, n := range c.Nodes() {
		if err := n.stepUntil(T, each); err != nil {
			return err
		}
	}
	return nil
}

// MigrateSession moves a session's affinity from one node to another,
// shipping the source's environment state over the control plane. The
// target re-verifies policy state and image digests before accepting;
// any refusal leaves the session routed to the source. On success the
// session is pinned to the target. A node cannot be its own target.
func (c *Cluster) MigrateSession(session, fromID, toID string) error {
	if fromID == toID {
		return fmt.Errorf("cluster: migrate: %s is both source and target", fromID)
	}
	c.mu.RLock()
	src, sok := c.nodes[fromID]
	dst, dok := c.nodes[toID]
	c.mu.RUnlock()
	if !sok {
		return fmt.Errorf("cluster: migrate: no node %q", fromID)
	}
	if !dok {
		return fmt.Errorf("cluster: migrate: no node %q", toID)
	}
	if dst.State() != NodeActive {
		return fmt.Errorf("cluster: migrate: target %s is %s", toID, dst.State())
	}

	wire := stateExportWire{State: src.prog.ExportEnvState(), Image: src.manifest}
	payload, err := json.Marshal(wire)
	if err != nil {
		return err
	}
	mc, err := src.dialCtrl(dst)
	if err != nil {
		return err
	}
	defer mc.Close()
	if _, err := roundTrip(mc, ctrlMsg{Kind: "migrate", Node: src.id, Session: session, State: payload}); err != nil {
		return err
	}

	c.mu.Lock()
	c.pins[session] = toID
	c.mu.Unlock()
	c.migrations.Add(1)
	c.emit(obs.Event{Kind: obs.KindMigrate, Worker: toID, Detail: fmt.Sprintf("%s: %s -> %s", session, fromID, toID)})
	return nil
}

// emit records a cluster control-plane event. Cluster coordination is
// host-side: events carry no virtual cost and no virtual timestamp.
func (c *Cluster) emit(e obs.Event) {
	if c.opts.Trace != nil {
		c.opts.Trace.Emit(e)
	}
}

// Close drains and stops every node.
func (c *Cluster) Close() {
	for _, n := range c.Nodes() {
		c.mu.Lock()
		c.ring.Remove(n.id)
		c.mu.Unlock()
		n.drain()
		n.shutdownCtrl()
	}
	c.mu.Lock()
	c.nodes = make(map[string]*Node)
	c.order = nil
	c.mu.Unlock()
}
