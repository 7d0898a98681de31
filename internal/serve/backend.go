package serve

import (
	"context"
	"time"
)

// AcquireOpts parameterizes one admission request of a session.
type AcquireOpts struct {
	// Resources lists the resource identifiers to lock, all-or-nothing.
	Resources []int
	// Deadline, when non-zero, is the instant the session wants
	// admission by. It feeds deadline-aware policies (EDF); it does
	// not abort a late request — cancellation comes from the context.
	// When zero, an Acquire context's deadline (if any) is used.
	Deadline time.Time
}

// BackendSession is one session of the cluster the client-port server
// fronts: one Acquire after another, at most one outstanding at a time,
// Close when the connection that opened it is done. *live.Session
// implements it.
type BackendSession interface {
	// Acquire blocks until every listed resource is held exclusively,
	// then returns the release function. If ctx ends first the eventual
	// grant is auto-released and ctx.Err() returned.
	//
	// The server reuses what it passes in, which puts two rules on an
	// implementation. ctx and opts.Resources belong to the request: ctx
	// must not be used after Acquire returns, and opts.Resources must
	// not be retained past the grant's release (or past a failed
	// Acquire's return). And the release function must be idempotent
	// and bound to its own grant: a second call, even one that arrives
	// after the session's next Acquire was granted, releases nothing.
	Acquire(ctx context.Context, opts AcquireOpts) (func(), error)
	// Close invalidates the session. It does not revoke a held grant.
	Close()
}
