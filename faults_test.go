package budgetwf

import "testing"

func TestFacadeExecuteFaulty(t *testing.T) {
	w, err := Generate(Montage, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := DefaultPlatform()
	s, err := ScheduleWith(AlgHeftBudg, w, p, 1.0)
	if err != nil {
		t.Fatal(err)
	}

	// A zero spec injects nothing: the run completes.
	clean, err := ExecuteFaulty(w, p, s, 42, &FaultSpec{}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Completed || clean.TasksDone != w.NumTasks() || clean.Crashes != 0 {
		t.Fatalf("zero-spec run not clean: %+v", clean)
	}
	for _, st := range clean.TaskStatus {
		if st != TaskDone {
			t.Fatalf("zero-spec run has non-done task status %v", st)
		}
	}

	// A hostile spec under a lifted guard still returns a report, not
	// an error, whatever the budget guard and retry caps decided.
	spec := &FaultSpec{
		CrashRatePerHour: []float64{200},
		Recovery:         RecoverReplicate,
		Seed:             7,
	}
	r, err := ExecuteFaulty(w, p, s, 42, spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.TasksDone+r.TasksFailed != w.NumTasks() {
		t.Fatalf("statuses do not cover the workflow: %+v", r)
	}

	// Invalid specs are named-field errors.
	if _, err := ExecuteFaulty(w, p, s, 42, &FaultSpec{Recovery: "hope"}, 0); err == nil {
		t.Fatal("invalid recovery accepted")
	}
}
