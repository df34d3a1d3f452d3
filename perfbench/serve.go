package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"llhd"
	"llhd/internal/designs"
	"llhd/internal/moore"
	"llhd/internal/simserver"
)

const (
	// serveClients is the number of closed-loop clients, and the
	// server's worker count.
	serveClients = 2
	// serveCacheCapacity is the server's design-cache bound: below the
	// ten Table 2 designs, so a steady share of submissions evicts and
	// recompiles.
	serveCacheCapacity = 7
)

// serveBench is the serve-stream workload: an in-process simserver on a
// loopback port, and two closed-loop clients that POST SystemVerilog
// designs to /v1/sim/stream and read the whole NDJSON body.
type serveBench struct {
	ds     []designs.Design
	bodies [][]byte // request JSON per design
	want   [][]byte // serial interpreter trace rendered by simserver.RenderTrace
	refs   []outcome

	srv    *simserver.Server
	hs     *http.Server
	served chan error // Serve's return value
	client *http.Client
	url    string
	busy   atomic.Int64 // 503 responses
}

func newServeBench(ds []designs.Design) (*serveBench, error) {
	b := &serveBench{ds: ds}
	for _, d := range ds {
		m, err := moore.Compile(d.Name, d.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		obs := &llhd.TraceObserver{}
		s, err := llhd.NewSession(llhd.FromModule(m), llhd.Top(d.Top), llhd.Backend(llhd.Interp), llhd.WithObserver(obs))
		if err != nil {
			return nil, fmt.Errorf("%s: interpreter reference: %w", d.Name, err)
		}
		err = s.Run()
		st := s.Finish()
		if err != nil || st.AssertionFailures != 0 {
			return nil, fmt.Errorf("%s: interpreter reference: %v, %d assertion failures", d.Name, err, st.AssertionFailures)
		}
		body, err := json.Marshal(simserver.Request{Design: d.Source, Kind: "sv", Top: d.Top})
		if err != nil {
			return nil, err
		}
		b.bodies = append(b.bodies, body)
		b.want = append(b.want, simserver.RenderTrace(obs))
		b.refs = append(b.refs, outcome{deltas: st.DeltaSteps, events: st.Events})
	}

	srv, err := simserver.New(simserver.Config{Workers: serveClients, CacheCapacity: serveCacheCapacity})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.srv = srv
	b.hs = &http.Server{Handler: srv}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	b.url = "http://" + ln.Addr().String() + "/v1/sim/stream"

	return b, nil
}

func (b *serveBench) jobs() int { return len(b.ds) }

// close shuts the server down and waits for it to stop serving.
func (b *serveBench) close() {
	b.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.hs.Shutdown(ctx) // a timeout leaves Serve returning below anyway
	<-b.served
}

// sweep submits the designs in order; each client takes the next
// unsubmitted design as soon as its previous response is fully read.
func (b *serveBench) sweep(order []int, sc scope, tl *tally) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				i := order[k]
				res, err := b.request(i, sc.jobSpan(i, b.ds[i].Name), &buf)
				tl.add(sc.sweep, "sim.deltas", int64(res.DeltaSteps))
				tl.add(sc.sweep, "sim.events", int64(res.Events))
				tl.job(b.ds[i].Name, err)
			}
		}()
	}
	wg.Wait()
}

// request submits design i, reads the whole stream into buf and checks
// it: the deltas must equal the serial interpreter reference byte for
// byte, followed by exactly one Result line of class ok.
func (b *serveBench) request(i int, js scope, buf *bytes.Buffer) (simserver.Result, error) {
	var res simserver.Result
	rs := js.child("simserver.request")
	ts := rs.child("simserver.ttfb")
	resp, err := b.client.Post(b.url, "application/json", bytes.NewReader(b.bodies[i]))
	ts.end(0, 0)
	if err != nil {
		rs.end(0, 0)
		js.end(0, 0)
		return res, err
	}
	bs := rs.child("simserver.body")
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	n := int64(buf.Len())
	bs.end(n, 0)
	rs.end(n, 0)
	js.end(0, 0)
	if err != nil {
		return res, fmt.Errorf("reading stream: %w", err)
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		b.busy.Add(1)
	}
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	body, want := buf.Bytes(), b.want[i]
	if !bytes.HasPrefix(body, want) {
		return res, errors.New("streamed deltas differ from the serial interpreter trace")
	}
	last := body[len(want):]
	if len(last) == 0 || last[len(last)-1] != '\n' || bytes.IndexByte(last[:len(last)-1], '\n') >= 0 {
		return res, errors.New("stream does not end in exactly one result line after the reference deltas")
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	if res.Class != simserver.ClassOK || res.AssertionFailures != 0 {
		return res, fmt.Errorf("result class %q, %d assertion failures: %s", res.Class, res.AssertionFailures, res.Error)
	}
	return res, outcome{deltas: res.DeltaSteps, events: res.Events}.check(b.refs[i])
}
