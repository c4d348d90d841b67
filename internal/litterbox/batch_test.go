package litterbox_test

import (
	"errors"
	"testing"

	"github.com/litterbox-project/enclosure/internal/kernel"
	"github.com/litterbox-project/enclosure/internal/litterbox"
	"github.com/litterbox-project/enclosure/internal/ring"
)

// TestSyscallBatchReusedRing drives consecutive batches through one
// ring on every backend, in both drain modes. The first batch is denied
// mid-batch (sys:proc forbids socket), the second runs on the aborted
// domain, the third after the domain resets. The ring reuses its entry,
// completion and CQ storage across all three, so each batch's
// completions must carry only its own tags.
func TestSyscallBatchReusedRing(t *testing.T) {
	for _, name := range []string{"baseline", "mpk", "vtx", "cheri"} {
		for _, batched := range []bool{true, false} {
			mode := map[bool]string{true: "amortized", false: "sequential"}[batched]
			t.Run(name+"/"+mode, func(t *testing.T) {
				lb, cpu, env := gatewayWorld(t, name)
				lb.SetRingBatching(batched)
				dom := &litterbox.FaultDomain{}
				lb.BindWorker(cpu.Clock, &litterbox.CPUState{Domain: dom})
				r := ring.New(4)
				drain := func(entries ...ring.Entry) ([]ring.Completion, error) {
					for _, e := range entries {
						if !r.Submit(e) {
							t.Fatalf("Submit(%+v) rejected", e)
						}
					}
					err := r.Drain(func(batch []ring.Entry, out []ring.Completion) error {
						return lb.SyscallBatch(cpu, env, "lib", batch, out)
					})
					return append([]ring.Completion(nil), r.Reap()...), err
				}
				enforcing := name != "baseline"

				first, err := drain(
					ring.Entry{Nr: kernel.NrGetpid, Tag: 11},
					ring.Entry{Nr: kernel.NrGetuid, Tag: 12},
					ring.Entry{Nr: kernel.NrSocket, Tag: 13},
					ring.Entry{Nr: kernel.NrGetpid, Tag: 14},
				)
				var fault *litterbox.Fault
				if enforcing != errors.As(err, &fault) {
					t.Fatalf("first batch: err = %v, want a fault iff the backend enforces", err)
				}
				want := []kernel.Errno{kernel.OK, kernel.OK, kernel.OK, kernel.OK}
				if enforcing {
					want[2], want[3] = kernel.ESECCOMP, kernel.ECANCELED
				}
				checkBatch(t, "first", first, []uint64{11, 12, 13, 14}, want)

				if enforcing {
					// The domain is still aborted: the batch never runs,
					// and its slots post zeroed, not the first batch's.
					aborted, err := drain(ring.Entry{Nr: kernel.NrGetuid, Tag: 21})
					if !errors.Is(err, litterbox.ErrAborted) {
						t.Fatalf("batch on an aborted domain: err = %v, want ErrAborted", err)
					}
					checkBatch(t, "aborted", aborted, []uint64{0}, []kernel.Errno{kernel.OK})
					dom.Reset()
					r.Reset()
				}

				third, err := drain(
					ring.Entry{Nr: kernel.NrGetuid, Tag: 31},
					ring.Entry{Nr: kernel.NrGetpid, Tag: 32},
				)
				if err != nil {
					t.Fatalf("third batch: %v", err)
				}
				checkBatch(t, "third", third, []uint64{31, 32}, []kernel.Errno{kernel.OK, kernel.OK})

				st := r.Stats()
				wantSt := ring.Stats{Batches: 2, Entries: 6}
				if enforcing {
					wantSt = ring.Stats{Batches: 3, Entries: 7, Canceled: 1}
				}
				if st != wantSt {
					t.Errorf("Stats = %+v, want %+v", st, wantSt)
				}
			})
		}
	}
}

func checkBatch(t *testing.T, which string, got []ring.Completion, tags []uint64, errnos []kernel.Errno) {
	t.Helper()
	if len(got) != len(tags) {
		t.Fatalf("%s batch: %d completions %+v, want %d", which, len(got), got, len(tags))
	}
	for i, c := range got {
		if c.Tag != tags[i] || c.Errno != errnos[i] {
			t.Errorf("%s batch completion %d = %+v, want tag %d errno %v", which, i, c, tags[i], errnos[i])
		}
	}
}
