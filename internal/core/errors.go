package core

import "errors"

// Sentinel errors of the core module and the userspace service. All error
// returns in this package either are one of these values or wrap one, so
// callers classify failures with errors.Is instead of string matching.
// codegen.ErrSnapshotBuild plays the same role for snapshot generation.
var (
	// ErrNoModel: the fast path was queried before any snapshot was
	// registered.
	ErrNoModel = errors.New("core: no model installed")
	// ErrNoStandby: Activate was called with no standby snapshot pending.
	ErrNoStandby = errors.New("core: no standby snapshot to activate")
	// ErrNilModule: RegisterModel was handed a nil or program-less module.
	ErrNilModule = errors.New("core: nil module")
	// ErrDimensionMismatch: a module declares NN dimensions incompatible
	// with the installed model.
	ErrDimensionMismatch = errors.New("core: dimension mismatch")
	// ErrMalformedSample: a netlink payload failed validation in
	// ParseSample — wrong length header, non-finite values, or an empty
	// record. The kernel boundary rejects such data instead of misparsing.
	ErrMalformedSample = errors.New("core: malformed sample")
	// ErrDegraded: Activate was called while the slow-path watchdog has the
	// core pinned to its last-good snapshot. A stalled service's half-
	// delivered update must never be activated; activation is refused until
	// the slow path proves liveness again (NoteSlowPathAlive).
	ErrDegraded = errors.New("core: degraded, activation pinned to last-good snapshot")
)
