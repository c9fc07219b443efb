package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"openmeta/internal/eventbus"
	"openmeta/internal/pbio"
)

// rig is one in-process broker on loopback TCP with the benchmark's two
// client connections: a publisher and a subscriber. Broker and clients
// run with the program's defaults (default metrics registry and flight
// recorder, tracer off), as eventbusd runs them.
type rig struct {
	broker *eventbus.Broker
	pub    *eventbus.Publisher
	sub    *eventbus.Subscriber
}

// newRig starts a broker, dials both clients and subscribes to stream,
// scoped to fields when any are given. It returns once the broker has
// registered the subscription, so the first publish reaches it.
func newRig(stream string, subCtx *pbio.Context, fields ...string) (*rig, error) {
	b, err := eventbus.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rig{broker: b}
	addr := b.Addr().String()
	if r.pub, err = eventbus.DialPublisher(addr); err != nil {
		r.close()
		return nil, err
	}
	if r.sub, err = eventbus.DialSubscriber(addr, subCtx); err != nil {
		r.close()
		return nil, err
	}
	if err := r.sub.SubscribeFields(stream, fields...); err != nil {
		r.close()
		return nil, err
	}
	for deadline := time.Now().Add(10 * time.Second); b.SubscriberCount(stream) == 0; {
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("subscription to %q never registered", stream)
		}
		runtime.Gosched()
	}
	return r, nil
}

func (r *rig) close() {
	if r.sub != nil {
		_ = r.sub.Close()
	}
	if r.pub != nil {
		_ = r.pub.Close()
	}
	_ = r.broker.Close()
}

// watchdog closes the subscriber when progress stops advancing for
// stallAfter, so a record the bus lost ends the run instead of blocking
// Next forever. The returned stop waits for the watchdog to exit and
// reports whether it fired.
func (r *rig) watchdog(progress *atomic.Int64, stallAfter time.Duration) (stop func() bool) {
	quit := make(chan struct{})
	done := make(chan bool, 1)
	go func() {
		tick := time.NewTicker(stallAfter / 10)
		defer tick.Stop()
		last, lastMove := progress.Load(), time.Now()
		for {
			select {
			case <-quit:
				done <- false
				return
			case now := <-tick.C:
				if p := progress.Load(); p != last {
					last, lastMove = p, now
				} else if now.Sub(lastMove) >= stallAfter {
					_ = r.sub.Close()
					<-quit
					done <- true
					return
				}
			}
		}
	}()
	return func() bool {
		close(quit)
		return <-done
	}
}

// handlerTransport is an in-memory http.RoundTripper that serves requests
// with a handler, so schema discovery opens no socket.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w := &memResponse{header: make(http.Header)}
	t.h.ServeHTTP(w, req)
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return &http.Response{
		Status:        strconv.Itoa(w.code) + " " + http.StatusText(w.code),
		StatusCode:    w.code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.header,
		Body:          io.NopCloser(&w.body),
		ContentLength: int64(w.body.Len()),
		Request:       req,
	}, nil
}

// memResponse is the http.ResponseWriter handlerTransport records into.
type memResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *memResponse) Header() http.Header { return w.header }

func (w *memResponse) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *memResponse) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}
