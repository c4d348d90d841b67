package cluster

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/engine"
	"github.com/litterbox-project/enclosure/internal/obs"
)

// testBuild constructs the homogeneous per-node program every cluster
// test uses: a main package plus an enclosed resource package. Builds
// are deterministic (tokens are content-derived), so every node's image
// digests to the same blobs.
func testBuild() (*core.Program, error) {
	return buildVariant("resource-bytes")
}

func buildVariant(payload string) (*core.Program, error) {
	b := core.NewBuilder(core.MPK)
	b.Package(core.PackageSpec{Name: "main", Origin: "app", LOC: 10})
	b.Package(core.PackageSpec{
		Name:   "res",
		Origin: "app", LOC: 5,
		Consts: map[string][]byte{"page": []byte(payload)},
	})
	b.Enclosure("guard", "main", "sys:none",
		func(t *core.Task, args ...core.Value) ([]core.Value, error) { return nil, nil }, "res")
	return b.Build()
}

func newTestCluster(t testing.TB, opts Opts) *Cluster {
	t.Helper()
	if opts.Build == nil {
		opts.Build = testBuild
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// do runs fn for session through the cluster's admission entry point
// (Submit) and steps the node that admitted it until its queues are
// dry. It returns the admission error, or else the job's own.
func do(c *Cluster, session string, fn engine.Job) error {
	var jobErr error
	n, err := c.Submit(session, engine.JobSpec{Name: "job", Fn: fn, Done: func(err error) { jobErr = err }})
	if err != nil {
		return err
	}
	if err := n.stepUntil(math.MaxInt64, nil); err != nil {
		return err
	}
	return jobErr
}

// Routing is deterministic under a fixed seed: two clusters with the
// same seed and membership route every idle session identically, and
// routing is stable across repeated lookups.
func TestClusterRoutingDeterministic(t *testing.T) {
	a := newTestCluster(t, Opts{Nodes: 4, Seed: 99})
	b := newTestCluster(t, Opts{Nodes: 4, Seed: 99})
	for i := 0; i < 64; i++ {
		s := fmt.Sprintf("session-%d", i)
		na, err := a.Route(s)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := b.Route(s)
		if err != nil {
			t.Fatal(err)
		}
		if na.ID() != nb.ID() {
			t.Fatalf("session %q: cluster A routes to %s, cluster B to %s under the same seed", s, na.ID(), nb.ID())
		}
		again, _ := a.Route(s)
		if again.ID() != na.ID() {
			t.Fatalf("session %q: route flapped %s -> %s at idle", s, na.ID(), again.ID())
		}
	}
}

// Requests route and run: every session's job executes on its routed
// node and the cluster counters add up.
func TestClusterDoRunsJobs(t *testing.T) {
	c := newTestCluster(t, Opts{Nodes: 2, Seed: 1})
	const reqs = 40
	for i := 0; i < reqs; i++ {
		ran := false
		err := do(c, fmt.Sprintf("s%d", i), func(tk *core.Task) error {
			tk.Compute(500)
			ran = true
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatal("the job did not run")
		}
	}
	if got := c.Stats().Routed; got != reqs {
		t.Fatalf("routed %d, want %d", got, reqs)
	}
	var total int64
	for _, m := range c.Metrics() {
		total += m.Requests
	}
	if total != reqs {
		t.Fatalf("nodes executed %d requests, want %d", total, reqs)
	}
}

// The job's own error reaches its Done untouched — it is the request's
// result, not a routing failure, so it must not trigger a re-route.
func TestClusterDoReturnsJobError(t *testing.T) {
	c := newTestCluster(t, Opts{Nodes: 2, Seed: 1})
	want := errors.New("application failure")
	err := do(c, "s", func(tk *core.Task) error { return want })
	if !errors.Is(err, want) {
		t.Fatalf("job returned %v, want its own error", err)
	}
	if got := c.Stats().Rerouted; got != 0 {
		t.Fatalf("job error caused %d re-routes", got)
	}
}

// Image replication is content-addressed: the first node seeds every
// blob, and a later identical node dedupes 100% — nothing ships twice.
func TestClusterReplicationDedupes(t *testing.T) {
	c := newTestCluster(t, Opts{Nodes: 1, Seed: 5})
	s1 := c.Stats()
	if s1.BlobsShipped == 0 || s1.BytesShipped == 0 {
		t.Fatalf("seeding shipped nothing: %+v", s1)
	}
	if s1.BlobsDeduped != 0 {
		t.Fatalf("first node deduped %d blobs against an empty registry", s1.BlobsDeduped)
	}

	n1, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	s2 := c.Stats()
	if s2.BlobsShipped != s1.BlobsShipped {
		t.Fatalf("identical join shipped %d new blobs", s2.BlobsShipped-s1.BlobsShipped)
	}
	if s2.BlobsDeduped != s1.BlobsShipped {
		t.Fatalf("identical join deduped %d of %d blobs", s2.BlobsDeduped, s1.BlobsShipped)
	}
	if s2.BytesDeduped != s1.BytesShipped {
		t.Fatalf("identical join deduped %d of %d bytes", s2.BytesDeduped, s1.BytesShipped)
	}
	if n1.State() != NodeActive {
		t.Fatalf("joined node is %s", n1.State())
	}
}

// A node whose image disagrees with the registry on any blob is
// heterogeneous and must be rejected at join, before it can serve.
func TestClusterHeterogeneousNodeRejected(t *testing.T) {
	builds := 0
	c := newTestCluster(t, Opts{Nodes: 1, Seed: 5, Build: func() (*core.Program, error) {
		builds++
		if builds > 1 {
			return buildVariant("tampered-bytes") // same blob names, different content
		}
		return testBuild()
	}})
	_, err := c.AddNode()
	if err == nil {
		t.Fatal("heterogeneous node joined")
	}
	if !strings.Contains(err.Error(), "heterogeneous") {
		t.Fatalf("rejection %q does not name the cause", err)
	}
	if c.Size() != 1 {
		t.Fatalf("cluster size %d after rejected join, want 1", c.Size())
	}
}

// Migrating a session re-verifies env state on the target, pins the
// session there, and subsequent routing honours the pin.
func TestClusterMigrateSessionPins(t *testing.T) {
	tr := obs.New(64)
	c := newTestCluster(t, Opts{Nodes: 2, Seed: 9, Trace: tr})
	const session = "sticky"
	from, err := c.Route(session)
	if err != nil {
		t.Fatal(err)
	}
	var to *Node
	for _, n := range c.Nodes() {
		if n.ID() != from.ID() {
			to = n
		}
	}

	if err := c.MigrateSession(session, from.ID(), to.ID()); err != nil {
		t.Fatal(err)
	}
	if pin := c.pins[session]; pin != to.ID() {
		t.Fatalf("session pinned to %q, want %q", pin, to.ID())
	}
	now, err := c.Route(session)
	if err != nil {
		t.Fatal(err)
	}
	if now.ID() != to.ID() {
		t.Fatalf("migrated session routes to %s, want %s", now.ID(), to.ID())
	}
	if to.Metrics().MigratedIn != 1 {
		t.Fatalf("target counted %d migrations in", to.Metrics().MigratedIn)
	}
	if c.Stats().Migrations != 1 {
		t.Fatalf("cluster counted %d migrations", c.Stats().Migrations)
	}

	// The control-plane events recorded the journey.
	kinds := map[string]int{}
	for _, e := range tr.Events() {
		kinds[e.Kind]++
	}
	if kinds[obs.KindJoin] != 2 || kinds[obs.KindMigrate] != 1 {
		t.Fatalf("event mix %v, want 2 joins and 1 migrate", kinds)
	}

	// Migrating to a missing node fails and leaves the pin alone.
	if err := c.MigrateSession(session, to.ID(), "node9"); err == nil {
		t.Fatal("migration to a missing node succeeded")
	}
	if pin := c.pins[session]; pin != to.ID() {
		t.Fatalf("failed migration moved the pin to %q", pin)
	}
	// So does migrating a session onto the node it is already on.
	if err := c.MigrateSession(session, from.ID(), from.ID()); err == nil {
		t.Fatal("migration onto its own node succeeded")
	}
	if pin := c.pins[session]; pin != to.ID() {
		t.Fatalf("self-migration moved the pin to %q", pin)
	}
}

// The balancer avoids loaded nodes: with work queued on the primary
// and no service history anywhere, a session's request lands on the
// idle replica candidate.
func TestClusterBalancesAwayFromLoadedNode(t *testing.T) {
	c := newTestCluster(t, Opts{Nodes: 2, Seed: 3, WorkersPerNode: 1, QueueDepth: 2})
	const session = "s"
	primary, err := c.Route(session)
	if err != nil {
		t.Fatal(err)
	}
	var other *Node
	for _, n := range c.Nodes() {
		if n.ID() != primary.ID() {
			other = n
		}
	}

	// Queue a job on the primary without stepping it.
	if err := primary.Engine().Submit(engine.JobSpec{Name: "queued", Fn: func(tk *core.Task) error { return nil }}); err != nil {
		t.Fatal(err)
	}

	before := other.Metrics().Requests
	if err := do(c, session, func(tk *core.Task) error { tk.Compute(100); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := other.Metrics().Requests; got != before+1 {
		t.Fatalf("replica ran %d requests, want %d: the balancer sent the job to the loaded primary", got, before+1)
	}
}

// The balancer ranks candidates on the virtual timeline: with host load
// equal, a session leaves the primary once the primary has more virtual
// work queued ahead of the next job than its replica.
func TestClusterRoutesByVirtualLoad(t *testing.T) {
	c := newTestCluster(t, Opts{Nodes: 2, Seed: 3, WorkersPerNode: 1})
	const session = "s"
	primary, err := c.Route(session)
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.submit(engine.JobSpec{Name: "busy", Fn: func(tk *core.Task) error { tk.Compute(1_000_000); return nil }}); err != nil {
		t.Fatal(err)
	}
	if err := primary.stepUntil(math.MaxInt64, nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.Route(session)
	if err != nil {
		t.Fatal(err)
	}
	if got == primary {
		t.Fatalf("session stayed on %s after it served 1ms of virtual work and its replica none", primary.ID())
	}
}

// When every candidate is saturated the typed backpressure error
// surfaces — the caller can distinguish "shed, try later" from a
// failure of the job itself.
func TestClusterBackpressureSurfacesTyped(t *testing.T) {
	c := newTestCluster(t, Opts{Nodes: 1, Seed: 3, WorkersPerNode: 1, QueueDepth: 1})
	n := c.Nodes()[0]

	// Fill the single queue slot without stepping it.
	if err := n.Engine().Submit(engine.JobSpec{Name: "fill", Fn: func(tk *core.Task) error { return nil }}); err != nil {
		t.Fatal(err)
	}

	_, err := c.Submit("s", engine.JobSpec{Name: "job", Fn: func(tk *core.Task) error { return nil }})
	if !errors.Is(err, engine.ErrBackpressure) {
		t.Fatalf("saturated cluster returned %v, want ErrBackpressure", err)
	}
}

// Backpressure falls through: a session whose first candidate is full
// is admitted by the next one, and the cluster counts the re-route. The
// session is pinned to the full node (a migration), so the balancer
// tries it first whatever its load.
func TestClusterBackpressureFallsThrough(t *testing.T) {
	c := newTestCluster(t, Opts{Nodes: 2, Seed: 3, WorkersPerNode: 1, QueueDepth: 1})
	const session = "s"
	full, other := c.Nodes()[0], c.Nodes()[1]
	if err := c.MigrateSession(session, other.ID(), full.ID()); err != nil {
		t.Fatal(err)
	}
	if err := full.Engine().Submit(engine.JobSpec{Name: "fill", Fn: func(tk *core.Task) error { return nil }}); err != nil {
		t.Fatal(err)
	}

	n, err := c.Submit(session, engine.JobSpec{Name: "job", Fn: func(tk *core.Task) error { return nil }})
	if err != nil {
		t.Fatalf("a full first candidate refused the session outright: %v", err)
	}
	if n != other {
		t.Fatalf("admitted on %s, want the next candidate %s", n.ID(), other.ID())
	}
	if got := c.Stats().Rerouted; got != 1 {
		t.Fatalf("%d re-routes counted, want 1", got)
	}
}
