package cluster

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestCtrlBlobShortDigest: a blob request whose claimed digest is
// shorter than the twelve characters an error message quotes gets an
// error reply, not a panic of the node's control goroutine.
func TestCtrlBlobShortDigest(t *testing.T) {
	c := newTestCluster(t, Opts{Nodes: 1})
	n := c.Nodes()[0]
	resp, ok := n.ctrlDecode([]byte(`{"kind":"blob","digest":"ab"}`))
	if !ok || resp.Kind != "err" || !strings.Contains(resp.Error, "blob ab:") {
		t.Fatalf("short-digest blob answered %+v (ok %v), want an error reply", resp, ok)
	}
}

// FuzzCtrlMsg feeds arbitrary bytes to a node's control plane: the
// request decode and dispatch every control connection runs, and the
// registry manifest decode and per-blob check a joining node runs. No
// input may panic. The seeds are the four real requests and a real
// manifest.
func FuzzCtrlMsg(f *testing.F) {
	c := newTestCluster(f, Opts{Nodes: 2})
	n, peer := c.Nodes()[0], c.Nodes()[1]
	local, err := imageBlobs(n.prog)
	if err != nil {
		f.Fatal(err)
	}
	manifest, err := json.Marshal(n.storeManifest())
	if err != nil {
		f.Fatal(err)
	}
	state, err := json.Marshal(stateExportWire{State: peer.prog.ExportEnvState(), Image: peer.manifest})
	if err != nil {
		f.Fatal(err)
	}
	b := local[0]
	for _, m := range []ctrlMsg{
		{Kind: "ping", Node: peer.id},
		{Kind: "manifest", Node: peer.id},
		{Kind: "blob", Node: peer.id, Name: b.name, Digest: blobDigest(b.data), Data: b.data},
		{Kind: "migrate", Node: peer.id, Session: "s", State: state},
	} {
		raw, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add(manifest)
	f.Fuzz(func(t *testing.T, data []byte) {
		if resp, _ := n.ctrlDecode(data); resp.Kind == "" {
			t.Fatalf("no reply kind for %q", data)
		}
		remote, err := manifestDigests(data)
		if err != nil {
			return
		}
		for _, b := range local {
			_, _ = n.registryHas(remote, b.name, blobDigest(b.data))
		}
	})
}
