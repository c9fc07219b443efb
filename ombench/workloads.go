package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"openmeta/internal/core"
	"openmeta/internal/dcg"
	"openmeta/internal/discovery"
	"openmeta/internal/eventbus"
	"openmeta/internal/machine"
	"openmeta/internal/pbio"
)

// stallAfter is how long an op may make no progress before the watchdog
// ends the window; a healthy op takes well under a millisecond.
const stallAfter = 10 * time.Second

var epoch = time.Now()

// now reads the monotonic clock as nanoseconds since start-up.
func now() int64 { return int64(time.Since(epoch)) }

// ledger sums, over the ops of a traced window, the time spent in each
// call into a layer on the op's path.
type ledger struct {
	encode, publish, deliver, convert, decode, schema, register, verify int64
}

func (l *ledger) add(o ledger) {
	l.encode += o.encode
	l.publish += o.publish
	l.deliver += o.deliver
	l.convert += o.convert
	l.decode += o.decode
	l.schema += o.schema
	l.register += o.register
	l.verify += o.verify
}

func (l *ledger) sum() int64 {
	return l.encode + l.publish + l.deliver + l.convert + l.decode + l.schema + l.register + l.verify
}

// tally counts a window's ops and the latency of each verified one.
type tally struct {
	ok, failed int64
	lat        latencyHist
	firstErr   error // first verification failure, for the report
}

func (t *tally) pass(ns int64) {
	t.ok++
	t.lat.observe(ns)
}

func (t *tally) merge(o *tally) {
	t.ok += o.ok
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.lat.merge(&o.lat)
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// workload is one closed loop the benchmark drives. The runner measures
// it in segments, each on a fresh rig, so a run spans many connections
// and scheduling states.
type workload interface {
	// setup replaces the rig with a fresh one and completes the format
	// handshake.
	setup() error
	// run drives one segment on the current rig: for at most d, and less
	// when the workload's segment is shorter, doing at least one op. It
	// counts ops into t; lg, when non-nil, receives each layer's time.
	run(d time.Duration, t *tally, lg *ledger) error
	broker() *eventbus.Broker
	close()
}

// recordSegment is how long a record workload runs on one rig. The number
// of connections a run opens then depends on its length alone, not on how
// fast the program is.
const recordSegment = 500 * time.Millisecond

// handshake runs one op, which carries the format to the subscriber.
func handshake(w workload) error {
	var t tally
	err := w.run(0, &t, nil)
	if err == nil && t.failed > 0 {
		err = fmt.Errorf("handshake: %w", t.firstErr)
	}
	return err
}

// recordLoop is the rig and inputs shared by the two record workloads.
type recordLoop struct {
	stream string
	in     *recordInputs
	r      *rig
	seq    uint64 // next sequence number to publish
	buf    []byte
}

func (w *recordLoop) broker() *eventbus.Broker { return w.r.broker }

func (w *recordLoop) close() {
	if w.r != nil {
		w.r.close()
		w.r = nil
	}
}

// newRecordRig replaces the rig; the subscriber adopts formats into a
// fresh native context.
func (w *recordLoop) newRecordRig() error {
	w.close()
	subCtx, err := pbio.NewContext(machine.Native)
	if err != nil {
		return err
	}
	w.r, err = newRig(w.stream, subCtx)
	return err
}

// next fills in the next record to publish.
func (w *recordLoop) next() (seq uint64, rec pbio.Record) {
	seq = w.seq
	w.seq++
	rec = w.in.publish[seq%variantCount]
	rec[seqField] = int64(seq)
	return seq, rec
}

// relay forwards mixed100B records from one publisher to one plain
// subscriber with relayInFlight records in flight: bare bus forwarding.
type relay struct {
	recordLoop
	sem chan struct{} // one token per record in flight
	// Per-slot stamps, indexed by seq%ringSize, written by the publishing
	// goroutine and read by the receiving one.
	start   [ringSize]atomic.Int64  // encode start
	doneAt  [ringSize]atomic.Int64  // Publish return (traced windows)
	doneSeq [ringSize]atomic.Uint64 // seq+1 once doneAt is stored
}

const (
	relayInFlight = 64
	ringSize      = 128 // a power of two above relayInFlight
)

func newRelay(seed int64) (*relay, error) {
	in, err := newPublishInputs("mixed100B", seed)
	if err != nil {
		return nil, err
	}
	return &relay{
		recordLoop: recordLoop{stream: "bench.relay", in: in},
		sem:        make(chan struct{}, relayInFlight),
	}, nil
}

// newPublishInputs builds a SizeSweep workload in a native publisher
// context.
func newPublishInputs(sweepName string, seed int64) (*recordInputs, error) {
	ctx, err := pbio.NewContext(machine.Native)
	if err != nil {
		return nil, err
	}
	return newRecordInputs(ctx, sweepName, seed)
}

func (w *relay) setup() error {
	if err := w.newRecordRig(); err != nil {
		return err
	}
	return handshake(w)
}

type pubResult struct {
	n   uint64
	err error
	lg  ledger
}

func (w *relay) run(d time.Duration, t *tally, lg *ledger) error {
	first := w.seq
	// total is how many records this run publishes: one for a zero-length
	// run, else what the publisher managed once stopped at the deadline.
	total := ^uint64(0)
	if d == 0 {
		total = 1
	}
	stop := make(chan struct{})
	pubDone := make(chan pubResult, 1)
	go func() { pubDone <- w.publishLoop(total, stop, lg != nil) }()

	var progress atomic.Int64
	stopWatch := w.r.watchdog(&progress, stallAfter)
	seqs := sequencer{next: first}
	deadline := now() + int64(min(d, recordSegment))
	var pr pubResult
	var sub ledger
	var runErr error
	stopped := false
	for seqs.next-first < total {
		ev, err := w.r.sub.Next()
		if err != nil {
			runErr = fmt.Errorf("relay: next: %w", err)
			break
		}
		tNext := now()
		got, err := ev.Format.Decode(ev.Data)
		tDec := now()
		seq, ok := got[seqField].(int64)
		if err != nil || !ok {
			t.fail(fmt.Errorf("relay: undecodable record: %v", err))
			seqs.next++
			<-w.sem
			continue
		}
		missing, dup := seqs.accept(uint64(seq))
		if dup {
			t.fail(fmt.Errorf("relay: record %d delivered twice or out of order", seq))
			continue
		}
		for ; missing > 0; missing-- {
			t.fail(fmt.Errorf("relay: record before %d never arrived", seq))
			<-w.sem
		}
		slot := uint64(seq) % ringSize
		verr := checkRecord(w.in.want[uint64(seq)%variantCount], got, seqField, seq)
		end := now()
		if verr != nil {
			t.fail(fmt.Errorf("relay: record %d: %w", seq, verr))
		} else {
			t.pass(end - w.start[slot].Load())
		}
		if lg != nil {
			for w.doneSeq[slot].Load() != uint64(seq)+1 {
				runtime.Gosched() // Publish has not returned yet
			}
			sub.deliver += tNext - w.doneAt[slot].Load()
			sub.decode += tDec - tNext
			sub.verify += end - tDec
		}
		<-w.sem
		progress.Add(1)
		if !stopped && end >= deadline {
			stopped = true
			close(stop)
			if pr = <-pubDone; pr.err != nil {
				break
			}
			total = pr.n
		}
	}
	if stopWatch() && runErr != nil {
		runErr = fmt.Errorf("no progress for %v: %w", stallAfter, runErr)
	}
	if !stopped {
		close(stop)
		pr = <-pubDone
	}
	if pr.err != nil && runErr == nil {
		runErr = fmt.Errorf("relay: publish: %w", pr.err)
	}
	if lg != nil {
		lg.add(pr.lg)
		lg.add(sub)
	}
	return runErr
}

// publishLoop encodes and publishes up to limit records while tokens are
// free, until stop closes. It returns how many records it published.
func (w *relay) publishLoop(limit uint64, stop <-chan struct{}, traced bool) pubResult {
	var res pubResult
	for res.n < limit {
		select {
		case <-stop:
			return res
		default:
		}
		select {
		case w.sem <- struct{}{}:
		case <-stop:
			return res
		}
		seq, rec := w.next()
		slot := seq % ringSize
		t0 := now()
		w.start[slot].Store(t0)
		w.buf, res.err = w.in.format.AppendEncode(w.buf[:0], rec)
		if res.err != nil {
			return res
		}
		t1 := now()
		res.err = w.r.pub.Publish(w.stream, w.in.format, w.buf)
		if traced {
			// Stamped even on error, so the receiver never waits for it.
			t2 := now()
			res.lg.encode += t1 - t0
			res.lg.publish += t2 - t1
			w.doneAt[slot].Store(t2)
			w.doneSeq[slot].Store(seq + 1)
		}
		if res.err != nil {
			return res
		}
		res.n++
	}
	return res
}

// heteroBulk sends mixed10KB records one at a time to a subscriber that
// converts each into the Sparc64 layout with a dcg plan and decodes it:
// the request/ack shape of the paper's Table 4.
type heteroBulk struct {
	recordLoop
	dst     *pbio.Format // the same format registered for Sparc64
	plan    *dcg.Plan
	planSrc *pbio.Format
}

func newHeteroBulk(seed int64) (*heteroBulk, error) {
	in, err := newPublishInputs("mixed10KB", seed)
	if err != nil {
		return nil, err
	}
	sparc, err := pbio.NewContext(machine.Sparc64)
	if err != nil {
		return nil, err
	}
	dst, err := newRecordInputs(sparc, "mixed10KB", seed)
	if err != nil {
		return nil, err
	}
	return &heteroBulk{
		recordLoop: recordLoop{stream: "bench.hetero", in: in},
		dst:        dst.format,
	}, nil
}

func (w *heteroBulk) setup() error {
	if err := w.newRecordRig(); err != nil {
		return err
	}
	w.plan, w.planSrc = nil, nil
	return handshake(w)
}

func (w *heteroBulk) run(d time.Duration, t *tally, lg *ledger) error {
	var progress atomic.Int64
	stopWatch := w.r.watchdog(&progress, stallAfter)
	defer stopWatch()
	for deadline := now() + int64(min(d, recordSegment)); ; {
		seq, rec := w.next()
		t0 := now()
		var err error
		if w.buf, err = w.in.format.AppendEncode(w.buf[:0], rec); err != nil {
			return fmt.Errorf("hetero-bulk: encode: %w", err)
		}
		t1 := now()
		if err := w.r.pub.Publish(w.stream, w.in.format, w.buf); err != nil {
			return fmt.Errorf("hetero-bulk: publish: %w", err)
		}
		t2 := now()
		ev, err := w.r.sub.Next()
		if err != nil {
			return fmt.Errorf("hetero-bulk: next: %w", err)
		}
		t3 := now()
		if ev.Format != w.planSrc {
			if w.plan, err = dcg.Compile(ev.Format, w.dst); err != nil {
				return fmt.Errorf("hetero-bulk: compile: %w", err)
			}
			w.planSrc = ev.Format
		}
		out, err := w.plan.Convert(ev.Data)
		t4 := now()
		var got pbio.Record
		if err == nil {
			got, err = w.dst.Decode(out)
		}
		t5 := now()
		if err == nil {
			err = checkRecord(w.in.want[seq%variantCount], got, seqField, int64(seq))
		}
		end := now()
		if err != nil {
			t.fail(fmt.Errorf("hetero-bulk: record %d: %w", seq, err))
		} else {
			t.pass(end - t0)
		}
		if lg != nil {
			lg.encode += t1 - t0
			lg.publish += t2 - t1
			lg.deliver += t3 - t2
			lg.convert += t4 - t3
			lg.decode += t5 - t4
			lg.verify += end - t5
		}
		progress.Add(1)
		if end >= deadline {
			return nil
		}
	}
}

// onboardEpisode is how many brand-new formats one rig onboards: an
// onboard segment. Fixing it bounds the state a run accumulates, so peak
// memory measures the cost of this many formats whatever the op rate.
const onboardEpisode = 1024

// onboard takes one never-seen XML Schema per op through discovery,
// xml2wire registration and its first published record, delivered to a
// subscriber scoped to two of its fields.
type onboard struct {
	docs  []schemaInput
	hello schemaInput // the handshake's schema
	next  int         // index of the next unused document

	r      *rig
	client *discovery.Client
	pubCtx *pbio.Context
	buf    []byte
}

const onboardStream = "bench.onboard"

func newOnboard(seed int64) *onboard {
	w := &onboard{hello: genSchema(seed, onboardEpisode)}
	w.hello.name = "Hello"
	for i := 0; i < onboardEpisode; i++ {
		w.docs = append(w.docs, genSchema(seed, i))
	}
	return w
}

func (w *onboard) broker() *eventbus.Broker { return w.r.broker }

func (w *onboard) close() {
	if w.r != nil {
		w.r.close()
		w.r = nil
	}
}

// setup loads every document into a fresh repository, starts a fresh
// rig whose subscriber is scoped to seq and stamp, and onboards the
// handshake schema.
func (w *onboard) setup() error {
	w.close()
	repo := discovery.NewRepository()
	for _, d := range w.docs {
		if err := repo.Put(d.name, d.doc); err != nil {
			return err
		}
	}
	if err := repo.Put(w.hello.name, w.hello.doc); err != nil {
		return err
	}
	var err error
	w.client, err = discovery.NewClient("http://metadata.local",
		discovery.WithHTTPClient(&http.Client{Transport: handlerTransport{repo.Handler()}}))
	if err != nil {
		return err
	}
	if w.pubCtx, err = pbio.NewContext(machine.Native); err != nil {
		return err
	}
	subCtx, err := pbio.NewContext(machine.Native)
	if err != nil {
		return err
	}
	if w.r, err = newRig(onboardStream, subCtx, "seq", "stamp"); err != nil {
		return err
	}
	w.next = 0
	if err := w.op(&w.hello, nil); err != nil {
		return fmt.Errorf("onboard: handshake: %w", err)
	}
	return nil
}

func (w *onboard) run(d time.Duration, t *tally, lg *ledger) error {
	var progress atomic.Int64
	stopWatch := w.r.watchdog(&progress, stallAfter)
	defer stopWatch()
	for deadline := now() + int64(d); ; {
		in := &w.docs[w.next]
		w.next++
		t0 := now()
		err := w.op(in, lg)
		end := now()
		var ve verifyError
		switch {
		case errors.As(err, &ve):
			t.fail(err)
		case err != nil:
			return err
		default:
			t.pass(end - t0)
		}
		progress.Add(1)
		if end >= deadline || w.next == len(w.docs) {
			return nil
		}
	}
}

// verifyError marks a delivered record that failed the output check, as
// against a layer call that failed outright.
type verifyError struct{ error }

// op onboards one schema: fetch and parse it, register it, encode and
// publish its first record, and check what the scoped subscriber gets.
func (w *onboard) op(in *schemaInput, lg *ledger) error {
	t0 := now()
	s, err := w.client.Schema(context.Background(), in.name)
	if err != nil {
		return fmt.Errorf("onboard: discover %s: %w", in.name, err)
	}
	t1 := now()
	set, err := core.RegisterSchema(w.pubCtx, s)
	if err != nil {
		return fmt.Errorf("onboard: register %s: %w", in.name, err)
	}
	t2 := now()
	f := set.Root()
	if w.buf, err = f.AppendEncode(w.buf[:0], in.record); err != nil {
		return fmt.Errorf("onboard: encode %s: %w", in.name, err)
	}
	t3 := now()
	if err := w.r.pub.Publish(onboardStream, f, w.buf); err != nil {
		return fmt.Errorf("onboard: publish %s: %w", in.name, err)
	}
	t4 := now()
	ev, err := w.r.sub.Next()
	if err != nil {
		return fmt.Errorf("onboard: next: %w", err)
	}
	t5 := now()
	got, err := ev.Format.Decode(ev.Data)
	t6 := now()
	if err == nil {
		err = checkScoped(got, in)
	}
	if lg != nil {
		lg.schema += t1 - t0
		lg.register += t2 - t1
		lg.encode += t3 - t2
		lg.publish += t4 - t3
		lg.deliver += t5 - t4
		lg.decode += t6 - t5
		lg.verify += now() - t6
	}
	if err != nil {
		return verifyError{fmt.Errorf("onboard: %s: %w", in.name, err)}
	}
	return nil
}

// checkScoped checks that the scoped subscriber saw exactly seq and stamp
// of the schema's first record.
func checkScoped(got pbio.Record, in *schemaInput) error {
	if len(got) != 2 {
		return fmt.Errorf("scoped record has %d fields, want seq and stamp", len(got))
	}
	if g, ok := got["seq"].(uint64); !ok || g != in.seq {
		return fmt.Errorf("seq = %v, want %d", got["seq"], in.seq)
	}
	if g, ok := got["stamp"].(uint64); !ok || g != in.stamp {
		return fmt.Errorf("stamp = %v, want %d", got["stamp"], in.stamp)
	}
	return nil
}
