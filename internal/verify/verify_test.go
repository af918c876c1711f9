package verify

import (
	"strings"
	"testing"

	"dyndiam/internal/dynet"
)

func res(outputs []int64, decided []bool) *dynet.Result {
	return &dynet.Result{Outputs: outputs, Decided: decided}
}

func TestTermination(t *testing.T) {
	r := res([]int64{1, 1, 0}, []bool{true, true, false})
	if err := Termination(r, nil); err == nil {
		t.Error("undetected non-termination")
	}
	if err := Termination(r, []int{0, 1}); err != nil {
		t.Errorf("subset termination failed: %v", err)
	}
	if err := Termination(r, []int{2}); err == nil {
		t.Error("node 2 reported terminated")
	}
}

func TestAgreement(t *testing.T) {
	if _, err := Agreement(res([]int64{5, 5}, []bool{true, true})); err != nil {
		t.Errorf("agreement rejected: %v", err)
	}
	if _, err := Agreement(res([]int64{5, 6}, []bool{true, true})); err == nil {
		t.Error("disagreement accepted")
	}
	// Undecided nodes are ignored.
	v, err := Agreement(res([]int64{5, 99}, []bool{true, false}))
	if err != nil || v != 5 {
		t.Errorf("got (%d, %v)", v, err)
	}
	if _, err := Agreement(res([]int64{0}, []bool{false})); err == nil {
		t.Error("no-decision accepted")
	}
}

// TestAgreementDeterministic pins the audit's determinism contract: the
// reference value is the lowest-id decided node's output, and a mismatch
// error names the lowest-id disagreeing node together with the reference
// node. Which node an auditor reports must never vary run to run.
func TestAgreementDeterministic(t *testing.T) {
	// Node 0 undecided: the reference must be node 1, not node 0.
	v, err := Agreement(res([]int64{99, 7, 7}, []bool{false, true, true}))
	if err != nil || v != 7 {
		t.Errorf("reference not lowest decided node: got (%d, %v), want (7, nil)", v, err)
	}
	// Nodes 2 and 3 both disagree with node 1; node 2 must be named.
	_, err = Agreement(res([]int64{0, 7, 8, 9}, []bool{false, true, true, true}))
	if err == nil {
		t.Fatal("disagreement accepted")
	}
	want := "verify: node 2 decided 8, but node 1 decided 7"
	if err.Error() != want {
		t.Errorf("mismatch report = %q, want %q (report must be deterministic)", err.Error(), want)
	}
}

// TestTerminationDeterministic: with several undecided nodes the error
// names the lowest id.
func TestTerminationDeterministic(t *testing.T) {
	r := res([]int64{0, 0, 0, 0}, []bool{true, false, true, false})
	err := Termination(r, nil)
	if err == nil {
		t.Fatal("non-termination accepted")
	}
	if want := "verify: node 1 did not decide"; err.Error() != want {
		t.Errorf("report = %q, want %q", err.Error(), want)
	}
}

func TestValidity(t *testing.T) {
	if err := Validity([]int64{0, 1, 0}, 1); err != nil {
		t.Errorf("valid value rejected: %v", err)
	}
	if err := Validity([]int64{0, 0}, 1); err == nil {
		t.Error("invalid value accepted")
	}
}

func TestConsensusComposite(t *testing.T) {
	inputs := []int64{0, 1}
	good := res([]int64{1, 1}, []bool{true, true})
	if err := Consensus(inputs, good); err != nil {
		t.Errorf("good consensus rejected: %v", err)
	}
	bad := res([]int64{2, 2}, []bool{true, true})
	if err := Consensus(inputs, bad); err == nil || !strings.Contains(err.Error(), "nobody") {
		t.Errorf("validity violation missed: %v", err)
	}
}

func TestLeader(t *testing.T) {
	good := res([]int64{3, 3, 3, 3}, []bool{true, true, true, true})
	if err := Leader(good, 4, true); err != nil {
		t.Errorf("good election rejected: %v", err)
	}
	if err := Leader(good, 4, false); err != nil {
		t.Errorf("non-max check rejected: %v", err)
	}
	notMax := res([]int64{2, 2, 2, 2}, []bool{true, true, true, true})
	if err := Leader(notMax, 4, true); err == nil {
		t.Error("non-max winner accepted with wantMax")
	}
	if err := Leader(notMax, 4, false); err != nil {
		t.Errorf("legitimate non-max winner rejected: %v", err)
	}
	outOfRange := res([]int64{9, 9}, []bool{true, true})
	if err := Leader(outOfRange, 4, false); err == nil {
		t.Error("phantom leader accepted")
	}
}

func TestMaxFunction(t *testing.T) {
	inputs := []int64{3, 9, 1}
	good := res([]int64{9, 9, 9}, []bool{true, true, true})
	if err := MaxFunction(inputs, good); err != nil {
		t.Errorf("good MAX rejected: %v", err)
	}
	bad := res([]int64{3, 3, 3}, []bool{true, true, true})
	if err := MaxFunction(inputs, bad); err == nil {
		t.Error("wrong MAX accepted")
	}
}

func TestEstimateWithin(t *testing.T) {
	good := res([]int64{90, 110}, []bool{true, true})
	if err := EstimateWithin(good, 100, 0.15); err != nil {
		t.Errorf("good estimates rejected: %v", err)
	}
	if err := EstimateWithin(good, 100, 0.05); err == nil {
		t.Error("out-of-band estimate accepted")
	}
}

// output is a machine that only reports an output.
type output struct {
	val int64
	ok  bool
}

func (output) Step(int) (dynet.Action, dynet.Message) { return dynet.Receive, dynet.Message{} }
func (output) Deliver(int, []dynet.Message)           {}
func (o output) Output() (int64, bool)                { return o.val, o.ok }

func TestCFlood(t *testing.T) {
	inputs := []int64{7, 0, 0}
	done := res([]int64{7, 7, 7}, []bool{true, true, true})
	if err := CFlood(inputs, []dynet.Machine{output{7, true}, output{7, true}, output{7, true}}, done, 0); err != nil {
		t.Errorf("good flood rejected: %v", err)
	}
	if err := CFlood(inputs, []dynet.Machine{output{7, true}, output{0, false}, output{7, true}}, done, 0); err == nil {
		t.Error("uninformed node accepted")
	}
	if err := CFlood(inputs, []dynet.Machine{output{7, true}, output{7, true}, output{6, true}}, done, 0); err == nil {
		t.Error("corrupted token accepted")
	}
	if err := CFlood(inputs, nil, res([]int64{0}, []bool{false}), 0); err == nil {
		t.Error("unconfirmed source accepted")
	}
}

func TestHearFrom(t *testing.T) {
	inputs := make([]int64, 3)
	if err := HearFrom(inputs, res([]int64{3, 3, 3}, []bool{true, true, true})); err != nil {
		t.Errorf("good run rejected: %v", err)
	}
	if err := HearFrom(inputs, res([]int64{3, 2, 3}, []bool{true, true, true})); err == nil {
		t.Error("short count accepted")
	}
}

func TestMajority(t *testing.T) {
	inputs := []int64{1, 1, 0}
	if err := Majority(inputs, res([]int64{1, 1, 0}, []bool{true, true, true})); err != nil {
		t.Errorf("sound claims rejected: %v", err)
	}
	if err := Majority(inputs, res([]int64{0, 0, 0}, []bool{true, true, true})); err != nil {
		t.Errorf("silence rejected: %v", err)
	}
	if err := Majority(inputs, res([]int64{0, 0, 1}, []bool{true, true, true})); err == nil {
		t.Error("minority claim accepted")
	}
}

// TestTable: every name looks up its own row, every row is complete, and
// an unknown name is an error.
func TestTable(t *testing.T) {
	for _, name := range Names() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name || p.Protocol == nil || p.Audit == nil || p.TermNode >= 4 {
			t.Errorf("%s: incomplete row %+v", name, p)
		}
	}
	if _, err := Lookup("nope"); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("unknown name: err = %v", err)
	}
}

// TestConsensusAuditWantsHighestInput: the table's consensus audit is
// stricter than Consensus, which accepts any valid value.
func TestConsensusAuditWantsHighestInput(t *testing.T) {
	p, err := Lookup("consensus")
	if err != nil {
		t.Fatal(err)
	}
	inputs, _ := p.Machines(4, 1, nil) // 0 1 0 1
	low := res([]int64{0, 0, 0, 0}, []bool{true, true, true, true})
	if err := Consensus(inputs, low); err != nil {
		t.Fatalf("Consensus rejected a valid decision: %v", err)
	}
	if err := p.Audit(inputs, nil, low); err == nil {
		t.Error("audit accepted a decision other than the highest id's input")
	}
	if err := p.Audit(inputs, nil, res([]int64{1, 1, 1, 1}, []bool{true, true, true, true})); err != nil {
		t.Errorf("audit rejected the highest id's input: %v", err)
	}
}
