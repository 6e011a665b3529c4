// Package reqerr is the one error type request validation returns,
// whichever package does the validating (fault, market, pool, dist, the
// server's own helpers). It carries the repo's two rejection classes:
//
//   - a scalar-domain violation — a NaN or negative budget, a grid
//     dimension over its ceiling, an unknown enum name — is malformed
//     input (HTTP 400);
//   - a well-formed value that names something unusable — an unknown
//     algorithm, a cyclic DAG, a generator constraint, an estimator that
//     cannot model the platform — is Semantic (HTTP 422).
//
// internal/server turns the class into a status in exactly one place;
// nothing else in the repository chooses between 400 and 422.
package reqerr

import "fmt"

// Error names the request field that failed validation. Field is the
// dotted path from the body's root as far as the validator knows it (a
// fault spec always sits under "faults", a market spec under "market",
// so those validators say so; an envelope adds its own key with Under).
// An empty Field means the defect is not attributable to one field.
type Error struct {
	Field    string
	Msg      string
	Semantic bool
}

func (e *Error) Error() string {
	if e.Field == "" {
		return e.Msg
	}
	return e.Field + ": " + e.Msg
}

// Invalid is a scalar-domain violation of field (400).
func Invalid(field, format string, args ...any) error {
	return &Error{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Unusable is a well-formed field describing something unusable (422).
func Unusable(field, format string, args ...any) error {
	return &Error{Field: field, Msg: fmt.Sprintf(format, args...), Semantic: true}
}

// Under re-roots err below prefix: a nested validator's "gridK" becomes
// "sweep.gridK" with its class kept. An error from outside this package
// becomes Unusable under prefix — its bytes were well-formed enough to
// reach a validator that does not classify. Under(prefix, nil) is nil.
func Under(prefix string, err error) error {
	switch e := err.(type) {
	case nil:
		return nil
	case *Error:
		if e.Field == "" {
			return &Error{Field: prefix, Msg: e.Msg, Semantic: e.Semantic}
		}
		return &Error{Field: prefix + "." + e.Field, Msg: e.Msg, Semantic: e.Semantic}
	}
	return Unusable(prefix, "%v", err)
}
