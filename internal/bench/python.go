package bench

import (
	"github.com/litterbox-project/enclosure/internal/core"
	"github.com/litterbox-project/enclosure/internal/pyfront"
)

// pythonExperiments runs the §6.4 study under LB_VTX (as the paper
// does): the conservative refcount/GC-switching prototype, the
// decoupled-metadata simulation, and the fully separated layout the
// paper names as future work (which keeps the secret read-only).
func pythonExperiments() ([]pyfront.Result, error) {
	var out []pyfront.Result
	for _, mode := range []pyfront.Mode{pyfront.Conservative, pyfront.Decoupled, pyfront.Separated} {
		r, err := pyfront.RunExperiment(core.VTX, mode)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	// The CHERI projection: co-located metadata behind a byte-granular
	// header capability, secret read-only, zero switches.
	r, err := pyfront.RunExperiment(core.CHERI, pyfront.CheriColocated)
	if err != nil {
		return nil, err
	}
	out = append(out, r)
	return out, nil
}
