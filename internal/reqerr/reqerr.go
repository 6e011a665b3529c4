// Package reqerr is the strict JSON decode every request body goes
// through (DecodeStrict), and the one error type request validation
// returns, whichever package does the validating (fault, market, pool,
// dist, the server's own helpers). The error carries the repo's two
// rejection classes:
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

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// DecodeStrict decodes JSON from r into v, rejecting unknown fields
// and anything but whitespace after the value. Its errors are
// syntactic (HTTP 400) or the body limit's (HTTP 413); the server
// tells them apart.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Only the end of the input may follow. (Decoder.More would let a
	// stray '}' or ']' through.)
	_, err := dec.Token()
	var tooLarge *http.MaxBytesError
	switch {
	case err == io.EOF:
		return nil
	case errors.As(err, &tooLarge):
		return err
	}
	return fmt.Errorf("trailing data after JSON body")
}

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
