package core

import (
	"context"
	"errors"
	"io"

	"vrdann/internal/codec"
)

// ErrorClass partitions step-API failures by what a serving layer should do
// about them. The taxonomy is the recovery policy: malformed input is the
// client's fault — quarantine the session's decode state and resync on the
// next chunk; cancellation is the server's own shutdown — fail the chunk
// without blaming the stream; an internal invariant violation is a bug —
// surface it loudly and never retry into it.
type ErrorClass int

const (
	// ClassNone classifies a nil error.
	ClassNone ErrorClass = iota
	// ClassMalformed is a corrupt, truncated or otherwise undecodable
	// bitstream: every error wrapping codec.ErrBitstream, plus bare EOF-style
	// reader exhaustion. Recoverable by resynchronizing on the next
	// independently decodable chunk.
	ClassMalformed
	// ClassCanceled is a context cancellation or deadline: the run was
	// stopped from outside, the input is not suspect.
	ClassCanceled
	// ClassInternal is everything else — an engine invariant violated on
	// input that parsed cleanly. Not the stream's fault; not recoverable by
	// resync alone.
	ClassInternal
)

// String returns the class's report name.
func (c ErrorClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassMalformed:
		return "malformed"
	case ClassCanceled:
		return "canceled"
	default:
		return "internal"
	}
}

// Classify maps an error returned by the step API (StreamEngine.Step /
// StepPrepare, the pipeline Run variants) onto its ErrorClass. It inspects
// the wrap chain, so callers may have added their own context around the
// error.
func Classify(err error) ErrorClass {
	switch {
	case err == nil:
		return ClassNone
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ClassCanceled
	case errors.Is(err, codec.ErrBitstream),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.EOF):
		return ClassMalformed
	default:
		return ClassInternal
	}
}
