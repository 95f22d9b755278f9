// The concurrent monitoring pipeline. The Logger itself is
// single-goroutine: one event stream in, one heap image out. That was
// fine when the only producer was a single simulated process, but it
// caps ingestion at one core and forces every instrumented thread of a
// real workload to serialize on the logger. The Pipeline decouples
// production from consumption with a multi-producer/single-consumer
// batched channel:
//
//	producer goroutines          consumer goroutine
//	┌──────────┐  batches   ┌─────────────────────────┐
//	│ Producer │──┐         │ Logger.Emit per event   │
//	├──────────┤  ├──▶ ch ──▶ graph mutation,         │
//	│ Producer │──┘         │ sampling, observers     │
//	└──────────┘            └─────────────────────────┘
//
// Each Producer owns a private batch buffer, so the only cross-thread
// operation is one channel send per BatchSize events. Backpressure is
// a policy choice: Block (default) stalls producers when the consumer
// falls behind — every event lands, matching single-threaded
// semantics; Drop sheds whole batches when the queue is full and
// tallies the loss in the logger's health counters (DroppedEvents),
// because a monitoring pipeline for production services must be able
// to prefer the service's latency over its own completeness, but must
// never lose events silently.
package logger

import (
	"sync"
	"sync/atomic"

	"heapmd/internal/event"
)

// BackpressurePolicy selects what a Producer does when the pipeline's
// queue is full.
type BackpressurePolicy int

const (
	// Block stalls the producer until the consumer drains a batch.
	// No events are lost; ingestion throughput is bounded by the
	// consumer. This is the default.
	Block BackpressurePolicy = iota
	// Drop discards the producer's current batch and counts the loss
	// in health.Counters.DroppedEvents. Producers never stall; the
	// heap image becomes approximate under overload.
	Drop
)

func (p BackpressurePolicy) String() string {
	if p == Drop {
		return "drop"
	}
	return "block"
}

// DefaultBatchSize is the number of events a Producer accumulates
// before handing a batch to the consumer.
const DefaultBatchSize = 256

// DefaultQueueDepth is the number of batches the pipeline buffers
// between producers and the consumer.
const DefaultQueueDepth = 32

// PipelineOptions configures a Pipeline.
type PipelineOptions struct {
	// BatchSize is the events per batch; 0 means DefaultBatchSize.
	BatchSize int
	// QueueDepth is the batches buffered in the channel; 0 means
	// DefaultQueueDepth.
	QueueDepth int
	// Policy is the backpressure policy; the zero value is Block.
	Policy BackpressurePolicy
	// Gate, when non-nil, makes the consumer receive from it before
	// applying each batch. Testing hook: holding the gate closed
	// deterministically fills the queue to exercise backpressure.
	Gate <-chan struct{}
}

func (o PipelineOptions) withDefaults() PipelineOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = DefaultQueueDepth
	}
	return o
}

// Pipeline fans concurrent event producers into one Logger. Create
// with NewPipeline, hand each producing goroutine its own Producer,
// and Close the pipeline (after closing every Producer) to drain.
type Pipeline struct {
	log  *Logger
	opts PipelineOptions
	ch   chan []event.Event
	free sync.Pool

	dropped   atomic.Uint64
	producers sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once
}

// NewPipeline starts a pipeline feeding l. The consumer goroutine
// starts immediately. The Logger must not be used directly (Emit,
// Report) by any other goroutine until Close returns.
func NewPipeline(l *Logger, opts PipelineOptions) *Pipeline {
	opts = opts.withDefaults()
	p := &Pipeline{
		log:  l,
		opts: opts,
		ch:   make(chan []event.Event, opts.QueueDepth),
		done: make(chan struct{}),
	}
	p.free.New = func() any { return make([]event.Event, 0, opts.BatchSize) }
	go p.consume()
	return p
}

func (p *Pipeline) consume() {
	defer close(p.done)
	for batch := range p.ch {
		if p.opts.Gate != nil {
			<-p.opts.Gate
		}
		p.log.EmitBatch(batch)
		p.free.Put(batch[:0]) //nolint:staticcheck // slice round-trips through the pool by value
	}
}

func (p *Pipeline) getBuf() []event.Event {
	return p.free.Get().([]event.Event)[:0]
}

// NewProducer registers a producer. Each producing goroutine must use
// its own Producer; a Producer is not safe for concurrent use.
func (p *Pipeline) NewProducer() *Producer {
	p.producers.Add(1)
	return &Producer{p: p, buf: p.getBuf()}
}

// Dropped returns the number of events shed so far under the Drop
// policy. Safe to call concurrently.
func (p *Pipeline) Dropped() uint64 { return p.dropped.Load() }

// Logger returns the consuming logger. Until Close has returned, the
// logger's accessors are only safe from the consumer's own callbacks
// (observers); the counts-only methods of its Graph are safe anywhere.
func (p *Pipeline) Logger() *Logger { return p.log }

// Close waits for every Producer to be closed, drains the queue, stops
// the consumer, and folds the drop counter into the logger's health
// accounting. After Close the Logger is exclusively the caller's again
// (Report is safe).
func (p *Pipeline) Close() error {
	p.closeOnce.Do(func() {
		p.producers.Wait()
		close(p.ch)
		<-p.done
		p.log.Health().DroppedEvents += p.dropped.Load()
	})
	return nil
}

// Producer is one goroutine's batching front-end to the pipeline. It
// implements event.Sink, so it can be subscribed anywhere a Logger
// could.
type Producer struct {
	p      *Pipeline
	buf    []event.Event
	closed bool
}

// Emit implements event.Sink: it appends to the producer's private
// batch and hands the batch to the consumer when full.
func (pr *Producer) Emit(e event.Event) {
	pr.buf = append(pr.buf, e)
	if len(pr.buf) >= pr.p.opts.BatchSize {
		pr.flush()
	}
}

// EmitBatch implements event.BatchSink: bulk-append the borrowed batch
// into the producer's private buffer, flushing at batch-size
// boundaries. Events are copied before return, honouring the
// borrowed-slice contract.
func (pr *Producer) EmitBatch(batch []event.Event) {
	for len(batch) > 0 {
		n := pr.p.opts.BatchSize - len(pr.buf)
		if n > len(batch) {
			n = len(batch)
		}
		pr.buf = append(pr.buf, batch[:n]...)
		batch = batch[n:]
		if len(pr.buf) >= pr.p.opts.BatchSize {
			pr.flush()
		}
	}
}

// Flush sends any buffered events without waiting for a full batch.
func (pr *Producer) Flush() {
	if len(pr.buf) > 0 {
		pr.flush()
	}
}

func (pr *Producer) flush() {
	batch := pr.buf
	pr.buf = pr.p.getBuf()
	if pr.p.opts.Policy == Drop {
		select {
		case pr.p.ch <- batch:
		default:
			pr.p.dropped.Add(uint64(len(batch)))
			pr.p.free.Put(batch[:0]) //nolint:staticcheck
		}
		return
	}
	pr.p.ch <- batch
}

// Close flushes the producer's remaining events and deregisters it
// from the pipeline. It must be called exactly once per Producer
// before Pipeline.Close; the Producer must not be used afterwards.
func (pr *Producer) Close() {
	if pr.closed {
		return
	}
	pr.closed = true
	pr.Flush()
	pr.p.producers.Done()
}
