package laoram

import (
	"context"
	"fmt"
	"io"

	"repro/internal/trace"
)

// IndexSource is a pull-based stream of upcoming embedding indices — the
// incremental alternative to materialising the entire access stream as one
// []uint64. Training systems usually learn the upcoming sample
// order batch by batch (a dataloader, a feature-store queue, a shuffled
// epoch being generated on the fly); an IndexSource lets the look-ahead
// planner consume that order as it appears, so epoch-scale runs never
// materialise the whole stream in memory.
//
// Read fills dst with the next indices in training order and returns how
// many it wrote. At end of stream it returns io.EOF (possibly alongside a
// final n > 0). Read must block until it can deliver at least one index,
// the stream ends, or ctx is cancelled; blocking sources must honour ctx
// and return ctx.Err().
type IndexSource interface {
	Read(ctx context.Context, dst []uint64) (n int, err error)
}

// RewindSource is an IndexSource whose cursor can be checkpointed and
// restored: Pos reports how many indices have been consumed, and Rewind
// seeks back to an absolute offset a checkpoint recorded. It is what
// TrainOptions.Recovery requires of the source — automated recovery rolls
// the feed back to the last checkpoint boundary and replays the doomed
// chunk. FromSlice and FromTrace return RewindSources; FromChannel cannot
// (a live feed has no past to replay) and is rejected when Recovery is set.
type RewindSource interface {
	IndexSource

	// Pos returns how many indices Read has consumed so far.
	Pos() uint64

	// Rewind moves the cursor to the absolute offset pos (a value
	// previously observed from Pos); offsets past the end of the stream
	// are rejected.
	Rewind(pos uint64) error
}

// FromSlice adapts an in-memory access stream to a RewindSource. The slice
// is not copied; do not mutate it while training.
func FromSlice(stream []uint64) RewindSource {
	return &sliceSource{data: stream}
}

// sliceSource is a counted cursor over an in-memory stream: pos, the number
// of indices consumed, is the cursor's whole state, so Rewind(pos) replays
// the feed byte-identically (DESIGN.md invariant #12). Not safe for
// concurrent use; the planner goroutine owns it.
type sliceSource struct {
	data []uint64
	pos  uint64
}

func (s *sliceSource) Read(ctx context.Context, dst []uint64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	n := copy(dst, s.data[s.pos:])
	s.pos += uint64(n)
	if s.pos == uint64(len(s.data)) {
		return n, io.EOF
	}
	return n, nil
}

func (s *sliceSource) Pos() uint64 { return s.pos }

// Rewind seeks to the absolute offset pos; seeking forward within the stream
// is allowed, though recovery only ever moves backwards.
func (s *sliceSource) Rewind(pos uint64) error {
	if pos > uint64(len(s.data)) {
		return fmt.Errorf("laoram: rewind to %d past end of %d-index stream", pos, len(s.data))
	}
	s.pos = pos
	return nil
}

// FromTrace generates one of the synthetic evaluation workloads (§VII-B)
// and streams it as a RewindSource. The trace is generated eagerly — it is
// a convenience for examples and benchmarks; production streams should
// implement IndexSource over their real dataloader.
func FromTrace(cfg TraceConfig) (RewindSource, error) {
	stream, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return FromSlice(stream), nil
}

// FromChannel adapts a channel of indices to an IndexSource: the natural
// shape when another goroutine produces the training order (a dataloader
// pipeline, a network feed). Read blocks for the first index, honouring
// ctx, then drains whatever else is immediately available without
// blocking; a closed channel ends the stream.
func FromChannel(ch <-chan uint64) IndexSource {
	return &chanSource{ch: ch}
}

type chanSource struct {
	ch <-chan uint64
}

func (c *chanSource) Read(ctx context.Context, dst []uint64) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	select {
	case id, ok := <-c.ch:
		if !ok {
			return 0, io.EOF
		}
		dst[0] = id
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	n := 1
	for n < len(dst) {
		select {
		case id, ok := <-c.ch:
			if !ok {
				return n, io.EOF
			}
			dst[n] = id
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}
