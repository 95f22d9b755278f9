package heapmd

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestTrainManyMatchesSerial pins the facade-level determinism
// contract: a parallel TrainMany fleet must build exactly the model a
// serial AddTraining loop builds.
func TestTrainManyMatchesSerial(t *testing.T) {
	var inputs []TrainingInput
	for seed := int64(1); seed <= 6; seed++ {
		inputs = append(inputs, TrainingInput{Name: fmt.Sprintf("input-%d", seed), Seed: seed})
	}

	serial := NewSession(Options{Frequency: 4})
	for _, in := range inputs {
		run := serial.NewRun("listprog", in.Name, in.Seed)
		buildListProgram(run.Process(), false, 400)
		serial.AddTraining(run)
	}
	serialModel, _, err := serial.Build()
	if err != nil {
		t.Fatal(err)
	}

	parallel := NewSession(Options{Frequency: 4})
	if err := parallel.TrainMany("listprog", inputs, 4, func(run *Run, in TrainingInput) error {
		buildListProgram(run.Process(), false, 400)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	parallelModel, _, err := parallel.Build()
	if err != nil {
		t.Fatal(err)
	}

	var sbuf, pbuf bytes.Buffer
	if err := SaveModel(serialModel, &sbuf); err != nil {
		t.Fatal(err)
	}
	if err := SaveModel(parallelModel, &pbuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sbuf.Bytes(), pbuf.Bytes()) {
		t.Errorf("parallel TrainMany built a different model\nserial:\n%s\nparallel:\n%s",
			sbuf.String(), pbuf.String())
	}
}

// TestTrainManyFirstErrorWins checks failure semantics: the error of
// the lowest-indexed failing input comes back (as a serial loop would
// report) and the session stays clean — no partial fleet lands in the
// training set.
func TestTrainManyFirstErrorWins(t *testing.T) {
	inputs := []TrainingInput{{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}}
	errB := errors.New("b failed")
	sess := NewSession(Options{Frequency: 4})
	err := sess.TrainMany("listprog", inputs, 4, func(run *Run, in TrainingInput) error {
		if in.Name == "b" || in.Name == "d" {
			return fmt.Errorf("%s failed", in.Name)
		}
		buildListProgram(run.Process(), false, 100)
		return nil
	})
	if err == nil || err.Error() != errB.Error() {
		t.Fatalf("err = %v, want %v", err, errB)
	}
	if len(sess.reports) != 0 {
		t.Fatalf("%d reports added despite fleet failure", len(sess.reports))
	}
}
