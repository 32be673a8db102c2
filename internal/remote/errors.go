package remote

import (
	"errors"
	"fmt"
	"time"
)

// ErrNodeDown reports that a call failed because the TCP connection to one
// serving node died (and, when reconnection is enabled, could not be
// re-established within the retry budget). It is the typed boundary between
// retryable infrastructure faults and fatal protocol/storage errors: a
// caller that sees ErrNodeDown knows the request may never have executed
// and the node may come back, so a checkpointed trainer can roll back and
// retry, while any other error means the server itself rejected the
// operation and retrying is pointless.
type ErrNodeDown struct {
	// Addr is the node's dial address.
	Addr string

	// Shard is the global shard index the failed call addressed (the
	// engine-level shard, mapped through the client's ShardBase/ShardStride
	// placement), or -1 when the failure is not specific to one call or
	// addressed a store grown by AddStore.
	Shard int

	// StateLost reports that the node answered a reconnect handshake with a
	// different boot ID: the process restarted and its in-memory tree is
	// gone, so requests sent before the crash must not be replayed and the
	// caller must restore the node from a checkpoint before continuing.
	StateLost bool

	// Err is the underlying transport error.
	Err error
}

func (e *ErrNodeDown) Error() string {
	suffix := ""
	if e.StateLost {
		suffix = " (server restarted; state lost)"
	}
	if e.Shard >= 0 {
		return fmt.Sprintf("remote: node %s down (shard %d)%s: %v", e.Addr, e.Shard, suffix, e.Err)
	}
	return fmt.Sprintf("remote: node %s down%s: %v", e.Addr, suffix, e.Err)
}

func (e *ErrNodeDown) Unwrap() error { return e.Err }

// AsNodeDown unwraps err to an *ErrNodeDown if one is in its chain.
func AsNodeDown(err error) (*ErrNodeDown, bool) {
	var nd *ErrNodeDown
	if errors.As(err, &nd) {
		return nd, true
	}
	return nil, false
}

// ErrOverloaded reports that a serving node shed this call under admission
// control (statusBusy) and the client's retry budget ran out — or that the
// node dropped the connection with a goaway after declaring this client a
// slow consumer. It is the typed boundary between capacity rejection and
// every other failure: the node is ALIVE and its trees are intact — the
// request never executed and nothing was lost — so the right response is
// to back off and retry (or route load elsewhere), never to roll back or
// restore a checkpoint. Contrast ErrNodeDown, where the transport died and
// the node may be gone.
type ErrOverloaded struct {
	// Addr is the overloaded node's dial address.
	Addr string

	// Shard is the global shard index the shed call addressed (mapped
	// through ShardBase/ShardStride like ErrNodeDown), or -1 when the
	// rejection is not specific to one call (a goaway).
	Shard int

	// RetryAfter is the server's most recent backoff hint (zero when the
	// server sent none).
	RetryAfter time.Duration

	// Sheds counts how many times this call was shed before the client
	// gave up (zero for a goaway).
	Sheds int

	// Err carries underlying context (the goaway cause, or the last shed
	// reason). May be nil.
	Err error
}

func (e *ErrOverloaded) Error() string {
	msg := fmt.Sprintf("remote: node %s overloaded", e.Addr)
	if e.Shard >= 0 {
		msg = fmt.Sprintf("remote: node %s overloaded (shard %d)", e.Addr, e.Shard)
	}
	if e.Sheds > 0 {
		msg += fmt.Sprintf(": request shed %d time(s)", e.Sheds)
	}
	if e.RetryAfter > 0 {
		msg += fmt.Sprintf(", retry after %v", e.RetryAfter)
	}
	if e.Err != nil {
		msg += fmt.Sprintf(": %v", e.Err)
	}
	return msg
}

func (e *ErrOverloaded) Unwrap() error { return e.Err }

// AsOverloaded unwraps err to an *ErrOverloaded if one is in its chain.
func AsOverloaded(err error) (*ErrOverloaded, bool) {
	var ov *ErrOverloaded
	if errors.As(err, &ov) {
		return ov, true
	}
	return nil, false
}
