package reqerr

import (
	"errors"
	"testing"
)

func TestUnder(t *testing.T) {
	if Under("sweep", nil) != nil {
		t.Error("Under(prefix, nil) is not nil")
	}
	for _, tc := range []struct {
		in       error
		want     string
		semantic bool
	}{
		{Invalid("gridK", "must be in [1, %d]", 400), "sweep.gridK: must be in [1, 400]", false},
		{Unusable("n", "too few"), "sweep.n: too few", true},
		{Unusable("", "missing workflow"), "sweep: missing workflow", true},
		{errors.New("wfgen: unknown type"), "sweep: wfgen: unknown type", true},
	} {
		var e *Error
		if got := Under("sweep", tc.in); !errors.As(got, &e) || got.Error() != tc.want || e.Semantic != tc.semantic {
			t.Errorf("Under(sweep, %v) = %v (semantic %v), want %q (semantic %v)", tc.in, got, e != nil && e.Semantic, tc.want, tc.semantic)
		}
	}
	if got := Unusable("", "missing workflow").Error(); got != "missing workflow" {
		t.Errorf("a fieldless error prints %q", got)
	}
}
