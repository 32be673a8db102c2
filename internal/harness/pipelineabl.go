package harness

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	laoram "repro"
	"repro/internal/trace"
)

// pipelineabl.go measures the streaming API's §VIII-A pipeline end to end:
// "the preprocessing can then run ahead of the GPU training process". The
// index stream of a real trainer is not a slice sitting in memory — it is
// produced incrementally by the sample pipeline (a dataloader, a feature
// queue) at a bounded rate. The sequential baseline waits for the whole
// stream to arrive, then trains over it. Train on the live source overlaps
// the two — indices arrive and are binned into look-ahead windows while
// earlier windows execute — so the stage-1 cost (stream arrival + §IV-B
// scan) hides behind ORAM execution.
//
// The experiment runs identical work both ways and reports the wall-clock
// speedup of the overlap. The feed rate is an explicit
// workload model, calibrated per run: unpaced dry runs measure this
// host's training throughput and the paced source then delivers indices
// at 1/1.5× that rate — a feed-bound pipeline, the common regime for
// dataloaders doing real I/O. Calibration makes the ratio
// hardware-independent: the pipelined wall is pinned to stream arrival
// (≈ 1.5× the dry training time) while the sequential baseline pays
// arrival plus training (≈ 2.5×), so the overlap win is ~1.6× on any
// host, race detector included. Both runs consume the same paced source,
// the same plans and the same session work; only when training starts
// differs.

// pipelineFeedChunk is the delivery granularity of the paced source (one
// dataloader batch).
const pipelineFeedChunk = 256

// PipelineResult is the pipeline experiment outcome.
type PipelineResult struct {
	Entries  uint64
	S        int
	Window   int
	Depth    int
	Accesses int
	Windows  int
	// FeedRate is the calibrated sample-pipeline throughput in indices/s
	// (matched to this host's measured training throughput).
	FeedRate int
	// SeqWall / PipeWall are the run wall-clocks; Speedup = Seq/Pipe.
	SeqWall  time.Duration
	PipeWall time.Duration
	Speedup  float64
	// PlanTime / TrainTime / Stalled are the pipelined run's stage
	// totals. Stalled is the time training actually waited on the plan
	// queue; the §VIII-A claim is Stalled ≪ stage-1 time.
	PlanTime  time.Duration
	TrainTime time.Duration
	Stalled   time.Duration
	// TrainerStalls / PlannerStalled / QueuePeak / QueueMean are the
	// first-class pipeline counters of laoram.TrainStats: queue-miss
	// count behind Stalled, planner backpressure time, and the plan-queue
	// depth each window fetch observed.
	TrainerStalls  int
	PlannerStalled time.Duration
	QueuePeak      int
	QueueMean      float64
}

// pipelineRun trains src over a fresh engine.
func pipelineRun(sc Scale, seed int64, src laoram.IndexSource, window int) (*laoram.TrainStats, error) {
	db, err := laoram.New(laoram.Options{
		Entries:      sc.EntriesSmall,
		MetadataOnly: true,
		FatTree:      true,
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	return db.Train(context.Background(), laoram.TrainOptions{
		Source:     src,
		Superblock: 8,
		Window:     window,
		Depth:      2,
		Horizon:    2 * window,
		PrePlace:   true,
	})
}

// sequentialRun is the baseline: drain the paced source into a slice (the
// whole stream's arrival), then train over it. Its wall is arrival plus the
// run's WallTime.
func sequentialRun(sc Scale, seed int64, stream []uint64, ratePerSec int) (*laoram.TrainStats, time.Duration, error) {
	src := newPacedSource(stream, ratePerSec, pipelineFeedChunk)
	arrived := make([]uint64, 0, len(stream))
	buf := make([]uint64, pipelineFeedChunk)
	start := time.Now()
	for {
		n, err := src.Read(context.Background(), buf)
		arrived = append(arrived, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
	}
	arrival := time.Since(start)
	st, err := pipelineRun(sc, seed, laoram.FromSlice(arrived), len(stream)/16)
	if err != nil {
		return nil, 0, err
	}
	return st, arrival + st.WallTime, nil
}

// PipelineExp calibrates the feed to this host's training throughput,
// then runs the sequential baseline (full stream arrives, then Train) and
// Train on the live paced source on identical work and reports the overlap
// speedup.
func PipelineExp(sc Scale, seed int64) (*PipelineResult, error) {
	accesses := 4 * sc.Accesses
	stream, err := workloadStream(trace.KindGaussian, sc.EntriesSmall, accesses, seed+31)
	if err != nil {
		return nil, err
	}
	// Calibrate against the faster of two dry runs: a transient load
	// spike during a single calibration would otherwise overestimate the
	// training time and skew the feed rate.
	trainTime := time.Duration(0)
	for i := 0; i < 2; i++ {
		dry, err := pipelineRun(sc, seed, laoram.FromSlice(stream), accesses/16)
		if err != nil {
			return nil, fmt.Errorf("calibration run: %w", err)
		}
		if dry.TrainTime > 0 && (trainTime == 0 || dry.TrainTime < trainTime) {
			trainTime = dry.TrainTime
		}
	}
	if trainTime <= 0 {
		return nil, fmt.Errorf("calibration runs measured no training time")
	}
	// Feed at 1/1.5× the measured training throughput: the arrival-bound
	// regime, where the pipelined wall is pinned to stream arrival (1.5×
	// the dry training time, with headroom for scheduler noise inflating
	// the overlapped training stage) and the sequential baseline pays
	// arrival plus training (2.5×) — an expected ~1.6× ratio on any
	// host, far from the knife-edge arrival ≈ training point.
	rate := int(float64(accesses) / (1.5 * trainTime.Seconds()))
	if rate < 1 {
		rate = 1
	}
	// Both legs do deterministic work, so the minimum wall over two runs
	// is the standard noise-floor estimator — applied to both legs alike,
	// it removes transient host-load spikes without biasing the ratio.
	var (
		seq, pipe         *laoram.TrainStats
		seqWall, pipeWall time.Duration
	)
	for i := 0; i < 2; i++ {
		st, wall, err := sequentialRun(sc, seed, stream, rate)
		if err != nil {
			return nil, fmt.Errorf("sequential run: %w", err)
		}
		if seq == nil || wall < seqWall {
			seq, seqWall = st, wall
		}
	}
	for i := 0; i < 2; i++ {
		st, err := pipelineRun(sc, seed, newPacedSource(stream, rate, pipelineFeedChunk), accesses/16)
		if err != nil {
			return nil, fmt.Errorf("pipelined run: %w", err)
		}
		if pipe == nil || st.WallTime < pipeWall {
			pipe, pipeWall = st, st.WallTime
		}
	}
	if seq.Session != pipe.Session || seq.Windows != pipe.Windows {
		return nil, fmt.Errorf("pipeline experiment: sequential and pipelined runs diverged (%+v vs %+v)",
			seq.Session, pipe.Session)
	}
	res := &PipelineResult{
		Entries:        sc.EntriesSmall,
		S:              8,
		Window:         accesses / 16,
		Depth:          2,
		Accesses:       accesses,
		Windows:        pipe.Windows,
		FeedRate:       rate,
		SeqWall:        seqWall,
		PipeWall:       pipeWall,
		PlanTime:       pipe.PlanTime,
		TrainTime:      pipe.TrainTime,
		Stalled:        pipe.TrainerStalled,
		TrainerStalls:  pipe.TrainerStalls,
		PlannerStalled: pipe.PlannerStalled,
		QueuePeak:      pipe.PlanQueuePeak,
		QueueMean:      pipe.PlanQueueMean,
	}
	if res.PipeWall > 0 {
		res.Speedup = float64(res.SeqWall) / float64(res.PipeWall)
	}
	return res, nil
}

// Render formats the pipeline experiment.
func (r *PipelineResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Pipeline — §VIII-A overlap, streaming Trainer vs one-shot schedule (gaussian, N=%d, S=%d, window=%d, feed %dk idx/s)",
			r.Entries, r.S, r.Window, r.FeedRate/1000),
		Headers: []string{"schedule", "wall", "plan", "train", "stalled"},
	}
	t.AddRow("sequential (arrive, then train)", r.SeqWall.Round(time.Millisecond).String(), "", "", "")
	t.AddRow("pipelined (streaming Trainer)", r.PipeWall.Round(time.Millisecond).String(),
		r.PlanTime.Round(time.Millisecond).String(),
		r.TrainTime.Round(time.Millisecond).String(),
		r.Stalled.Round(time.Millisecond).String())
	t.AddNote("overlap speedup %.2fx over %d windows — identical plans and session counters in both runs", r.Speedup, r.Windows)
	t.AddNote("queue: %d trainer stalls, planner backpressured %s, depth peak %d mean %.2f (bound %d)",
		r.TrainerStalls, r.PlannerStalled.Round(time.Millisecond), r.QueuePeak, r.QueueMean, r.Depth)
	return t.Render()
}

// CSV exports the measurement.
func (r *PipelineResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("schedule,wall_ns,plan_ns,train_ns,stalled_ns,trainer_stalls,planner_stalled_ns,queue_peak,queue_mean,speedup\n")
	sb.WriteString(fmt.Sprintf("sequential,%d,,,,,,,,\n", r.SeqWall.Nanoseconds()))
	sb.WriteString(fmt.Sprintf("pipelined,%d,%d,%d,%d,%d,%d,%d,%.3f,%.3f\n",
		r.PipeWall.Nanoseconds(), r.PlanTime.Nanoseconds(), r.TrainTime.Nanoseconds(),
		r.Stalled.Nanoseconds(), r.TrainerStalls, r.PlannerStalled.Nanoseconds(),
		r.QueuePeak, r.QueueMean, r.Speedup))
	return sb.String()
}

// pacedSource delivers a prepared access stream at a bounded rate in
// dataloader-batch-sized bursts: the laoram.IndexSource model of a
// sample pipeline producing the upcoming training order in real time
// (PipelineExp calibrates the rate to the host's training throughput). Delivery
// deadlines accumulate from the first Read, so a consumer that falls
// behind is never throttled further (the source only bounds how far ahead
// of real time indices can be consumed, exactly like a dataloader).
type pacedSource struct {
	inner    laoram.IndexSource
	interval time.Duration // per index
	chunk    int
	deadline time.Time
}

func newPacedSource(stream []uint64, ratePerSec, chunk int) *pacedSource {
	return &pacedSource{
		inner:    laoram.FromSlice(stream),
		interval: time.Second / time.Duration(ratePerSec),
		chunk:    chunk,
	}
}

// Read implements laoram.IndexSource.
func (p *pacedSource) Read(ctx context.Context, dst []uint64) (int, error) {
	if len(dst) > p.chunk {
		dst = dst[:p.chunk]
	}
	n, err := p.inner.Read(ctx, dst)
	if n > 0 {
		if p.deadline.IsZero() {
			p.deadline = time.Now()
		}
		p.deadline = p.deadline.Add(time.Duration(n) * p.interval)
		if wait := time.Until(p.deadline); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return 0, ctx.Err()
			}
		}
	}
	return n, err
}
