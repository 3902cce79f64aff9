// Package adapi is the network layer of the reproduction: HTTP servers that
// expose each simulated platform's audience-size estimate API in that
// platform's own JSON dialect, and clients that automate those APIs the way
// the paper's scraper did (§3, "Automating size queries").
//
// Facebook's and LinkedIn's dialects are straightforward JSON; Google's
// request and response bodies are obfuscated JSON keyed by opaque numeric
// strings. The Google client embeds the key mapping the paper reports
// recovering "by manually varying the targeting options systematically".
package adapi

import (
	"errors"
	"fmt"

	"repro/internal/platform"
	"repro/internal/targeting"
)

// Error codes carried in API error bodies so typed validation errors survive
// the HTTP round trip: the audit methodology needs errors.Is to keep working
// against a remote platform (e.g. detecting that Google cannot AND two
// attributes).
const (
	codeEmptySpec        = "empty_spec"
	codeEmptyClause      = "empty_clause"
	codeMixedClause      = "mixed_clause"
	codeExcludeForbidden = "exclude_forbidden"
	codeKindForbidden    = "kind_forbidden"
	codeDemoForbidden    = "demo_forbidden"
	codeAndWithinFeature = "and_within_feature"
	codeTooManyClauses   = "too_many_clauses"
	codeUnknownOption    = "unknown_option"
	codeDuplicateRef     = "duplicate_ref"
	codeInvalidDemoValue = "invalid_demo_value"
	codeUnknownObjective = "unknown_objective"
	codeBadFrequencyCap  = "bad_frequency_cap"
	codeMalformedRequest = "malformed_request"
	codeInternal         = "internal"
	codeRateLimited      = "rate_limited"
	codeUnknownPlatform  = "unknown_platform"
	codeMethodNotAllowed = "method_not_allowed"
)

// ErrBodyTooLarge marks an exchange the server refused with 413 because the
// request body exceeded its MaxBodyBytes. The batch clients split such a
// batch in halves instead of giving up on it. Match with errors.Is.
var ErrBodyTooLarge = errors.New("adapi: request body too large")

// codeByError pairs typed errors with their wire codes, one entry per code:
// errorCode checks it in order, errorFromCode looks codes up in it.
var codeByError = []struct {
	err  error
	code string
}{
	{targeting.ErrEmptySpec, codeEmptySpec},
	{targeting.ErrEmptyClause, codeEmptyClause},
	{targeting.ErrMixedClause, codeMixedClause},
	{targeting.ErrExcludeForbidden, codeExcludeForbidden},
	{targeting.ErrDemoForbidden, codeDemoForbidden},
	{targeting.ErrAndWithinFeature, codeAndWithinFeature},
	{targeting.ErrTooManyClauses, codeTooManyClauses},
	{targeting.ErrUnknownOption, codeUnknownOption},
	{targeting.ErrDuplicateRef, codeDuplicateRef},
	{targeting.ErrInvalidDemoValue, codeInvalidDemoValue},
	{targeting.ErrKindForbidden, codeKindForbidden},
	{platform.ErrUnknownObjective, codeUnknownObjective},
	{platform.ErrBadFrequencyCap, codeBadFrequencyCap},
	{platform.ErrUnknownInterface, codeUnknownPlatform},
}

// errorCode classifies an error into a wire code.
func errorCode(err error) string {
	for _, e := range codeByError {
		if errors.Is(err, e.err) {
			return e.code
		}
	}
	return codeInternal
}

// errorFromCode reconstructs a typed error from a wire code and message.
func errorFromCode(code, message string) error {
	for _, e := range codeByError {
		if e.code == code {
			return fmt.Errorf("adapi: remote rejected request: %w (%s)", e.err, message)
		}
	}
	return fmt.Errorf("adapi: remote error %s: %s", code, message)
}
