package wire

import (
	"fmt"
	"reflect"
	"strings"

	"dyndiam/internal/dynet"
	"dyndiam/internal/faults"
	"dyndiam/internal/obs"
	"dyndiam/internal/verify"
)

// RunArtifacts is everything one execution produced that the golden
// differential compares: result, error, per-round trace, obs event
// stream, and the metric snapshot. Both the distributed coordinator and
// the in-process engine fill the same shape.
type RunArtifacts struct {
	Res    *dynet.Result
	Err    error
	Trace  *dynet.Trace
	Events []obs.Event
	// Metrics is the model registry snapshot. Transport counters (wire_*)
	// live in a separate registry and never appear here — the distributed
	// run is allowed transport work, not model divergence.
	Metrics []obs.MetricPoint
}

// NewArtifacts allocates the observation set for one execution: trace
// (stats only; Diff also compares the recorded topology sequences of
// traces that keep them), event ring, and model metric registry.
func NewArtifacts(ringCap int) (*dynet.Trace, *obs.Ring, *obs.Registry) {
	return &dynet.Trace{}, obs.NewRing(ringCap), obs.NewRegistry()
}

// CollectArtifacts folds one finished execution into the comparable shape.
func CollectArtifacts(res *dynet.Result, err error, tr *dynet.Trace, ring *obs.Ring, reg *obs.Registry) *RunArtifacts {
	return &RunArtifacts{
		Res:     res,
		Err:     err,
		Trace:   tr,
		Events:  ring.Events(),
		Metrics: reg.Snapshot(),
	}
}

// RunInProcess executes the spec on dynet.Engine — the golden twin of a
// distributed Run over the identical RunSpec.
func RunInProcess(spec RunSpec, ringCap int) (*RunArtifacts, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p, err := verify.Lookup(spec.Proto)
	if err != nil {
		return nil, err
	}
	_, machines := p.Machines(spec.N, spec.Seed, spec.Extra)
	adv, err := spec.BuildAdversary()
	if err != nil {
		return nil, err
	}
	plan, err := faults.NewPlan(spec.Fault)
	if err != nil {
		return nil, err
	}
	tr, ring, reg := NewArtifacts(ringCap)
	eng := &dynet.Engine{
		Machines:          machines,
		Adv:               adv,
		CheckConnectivity: spec.CheckConnectivity,
		Trace:             tr,
		Obs:               ring,
		Metrics:           reg,
		Plan:              plan,
		Terminated:        p.Terminated(),
	}
	res, runErr := eng.Run(spec.MaxRounds)
	return CollectArtifacts(res, runErr, tr, ring, reg), nil
}

// Diff compares a distributed execution against its in-process twin and
// returns the first divergence, or nil when the runs are byte-identical
// across error texts, results, per-round trace stats, obs event streams,
// and model metric snapshots.
func Diff(dist, proc *RunArtifacts) error {
	if (dist.Err == nil) != (proc.Err == nil) {
		return fmt.Errorf("wire: error divergence: distributed=%v, in-process=%v", dist.Err, proc.Err)
	}
	if dist.Err != nil && dist.Err.Error() != proc.Err.Error() {
		return fmt.Errorf("wire: error text divergence:\n  distributed: %s\n  in-process:  %s", dist.Err, proc.Err)
	}
	if !reflect.DeepEqual(dist.Res, proc.Res) {
		return fmt.Errorf("wire: result divergence:\n  distributed: %+v\n  in-process:  %+v", dist.Res, proc.Res)
	}
	if err := diffTraces(dist.Trace, proc.Trace); err != nil {
		return err
	}
	if err := diffEvents(dist.Events, proc.Events); err != nil {
		return err
	}
	return diffMetrics(dist.Metrics, proc.Metrics)
}

func diffTraces(a, b *dynet.Trace) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("wire: trace presence divergence: distributed=%v, in-process=%v", a != nil, b != nil)
	}
	if a == nil {
		return nil
	}
	if len(a.Stats) != len(b.Stats) {
		return fmt.Errorf("wire: trace length divergence: distributed=%d rounds, in-process=%d rounds", len(a.Stats), len(b.Stats))
	}
	for i := range a.Stats {
		if !reflect.DeepEqual(a.Stats[i], b.Stats[i]) {
			return fmt.Errorf("wire: trace divergence at round %d:\n  distributed: %+v\n  in-process:  %+v", a.Stats[i].Round, a.Stats[i], b.Stats[i])
		}
	}
	if !reflect.DeepEqual(a.Schedule, b.Schedule) {
		return fmt.Errorf("wire: recorded topology divergence (kept: distributed=%v, in-process=%v)", a.KeepTopologies, b.KeepTopologies)
	}
	return nil
}

func diffEvents(a, b []obs.Event) error {
	if len(a) != len(b) {
		return fmt.Errorf("wire: event stream length divergence: distributed=%d, in-process=%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("wire: event divergence at index %d:\n  distributed: %+v\n  in-process:  %+v", i, a[i], b[i])
		}
	}
	return nil
}

// diffMetrics compares model metric snapshots, skipping wire_* transport
// counters on either side (a distributed run earns retries and
// reconnects; the model totals must still match exactly).
func diffMetrics(a, b []obs.MetricPoint) error {
	fa, fb := filterModelMetrics(a), filterModelMetrics(b)
	if len(fa) != len(fb) {
		return fmt.Errorf("wire: metric set divergence: distributed=%d points, in-process=%d points", len(fa), len(fb))
	}
	for i := range fa {
		if !reflect.DeepEqual(fa[i], fb[i]) {
			return fmt.Errorf("wire: metric divergence at %q:\n  distributed: %+v\n  in-process:  %+v", fa[i].Name, fa[i], fb[i])
		}
	}
	return nil
}

func filterModelMetrics(points []obs.MetricPoint) []obs.MetricPoint {
	out := make([]obs.MetricPoint, 0, len(points))
	for _, p := range points {
		if strings.HasPrefix(p.Name, "wire_") {
			continue
		}
		out = append(out, p)
	}
	return out
}
