package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"colsort"
	"colsort/internal/server"
)

// httpBench drives http-stream-8m: an in-process server on a loopback
// listener, and closed-loop clients that each keep one connection. The
// bodies are streamed from their generators; only their references are
// kept.
type httpBench struct {
	c   config
	ins []input

	eng    *colsort.Engine
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
}

// clients is the number of closed-loop clients: two, and never more than
// the machine has cores.
func clients() int { return min(2, runtime.NumCPU()) }

// start builds the engine, the server and the listener.
func (h *httpBench) start() error {
	eng, err := newEngine(h.c)
	if err != nil {
		return err
	}
	srv, err := server.New(eng, server.Config{MaxJobs: 4, WriteTimeout: time.Minute})
	if err != nil {
		eng.Close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return err
	}
	h.eng, h.srv = eng, srv
	h.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	h.served = make(chan error, 1)
	go func() { h.served <- h.hs.Serve(ln) }()
	h.url = "http://" + ln.Addr().String() + "/v1/sort"
	return nil
}

// stop shuts the listener down, waits for the serving goroutine, and
// drains the server, which closes the engine.
func (h *httpBench) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if e := <-h.served; !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	if e := h.srv.Drain(ctx); err == nil {
		err = e
	}
	return err
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// reqTiming holds the client-side timestamps of one request. wrote is set
// from the transport's goroutine.
type reqTiming struct {
	start, firstByte, end time.Time
	wrote                 atomic.Int64 // UnixNano when the body was fully sent
}

// post sends input i and checks the response body against its reference.
// It returns the HTTP status (0 when no response arrived).
func (h *httpBench) post(ctx context.Context, hc *http.Client, i int, buf []byte, rt *reqTiming) (int, error) {
	in := h.ins[i]
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { rt.wrote.Store(time.Now().UnixNano()) },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url, h.c.wl.body(h.c.seed, i))
	if err != nil {
		return 0, err
	}
	req.ContentLength = h.c.wl.inputBytes
	rt.start = time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sum := sha256.New()
	var got int64
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if rt.firstByte.IsZero() {
				rt.firstByte = time.Now()
				if h.c.flip {
					buf[0] ^= 0x01
				}
			}
			sum.Write(buf[:n])
			got += int64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return resp.StatusCode, err
		}
	}
	rt.end = time.Now()
	if err := checkSum(sum, in.refHash); err != nil {
		return resp.StatusCode, fmt.Errorf("%d-byte body: %w", got, err)
	}
	return resp.StatusCode, nil
}

// op is one operation's outcome: its latency, the window list it belongs
// to, and whether it was refused with 429.
type op struct {
	d       time.Duration
	to      opList
	refused bool
}

// opList names the window list an operation's latency goes to.
type opList int

const (
	toLat   opList = iota // window.lat: the measured operations
	toPlain               // window.plainLat
	toBase                // window.baseLat
)

// loop runs one closed-loop worker per client until the window is over,
// calling do for each operation with the input index to use.
func (h *httpBench) loop(ctx context.Context, secs float64, minJobs int,
	do func(ctx context.Context, client, i int) (op, error)) window {
	var mu sync.Mutex
	var w window
	before, err := sampleProc()
	if err != nil {
		w.attempted, w.failed = 1, 1
		fmt.Fprintf(os.Stderr, "job failed: %v\n", err)
		return w
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * len(h.ins) / clients(); ctx.Err() == nil; i++ {
				el := time.Since(start).Seconds()
				mu.Lock()
				done, failed := len(w.lat), w.failed
				mu.Unlock()
				if windowOver(el, secs, done, failed, minJobs) {
					return
				}
				o, err := do(ctx, c, i%len(h.ins))
				mu.Lock()
				w.attempted++
				switch {
				case err != nil:
					if o.refused {
						w.rejected++
					}
					w.fail("%v", err)
				case o.to == toPlain:
					w.plainLat = append(w.plainLat, o.d.Seconds())
				case o.to == toBase:
					w.baseLat = append(w.baseLat, o.d.Seconds())
				case o.to == toLat:
					w.lat = append(w.lat, o.d.Seconds())
					w.bytes += h.c.wl.inputBytes
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	w.busy = time.Since(start).Seconds()
	after, err := sampleProc()
	if err != nil {
		w.attempted++
		w.fail("%v", err)
	}
	w.proc = after.sub(before)
	return w
}

// requests runs a window of POSTs. With tr non-nil it is the traced run's
// window, which cycles through a traced request, an untraced in-process
// Engine.Sort of the same body, and an untraced request, so that the
// tracing overhead and the server's overhead are measured on interleaved
// operations. A traced request becomes a "request" span with upload, wait
// and download children (and a first_body_byte one overlapping the first
// two).
func (h *httpBench) requests(ctx context.Context, secs float64, minJobs int, tr *tracer) window {
	hcs := make([]*http.Client, clients())
	bufs := make([][]byte, clients())
	for i := range hcs {
		hcs[i] = newClient()
		bufs[i] = make([]byte, 256<<10)
	}
	defer func() {
		for _, hc := range hcs {
			hc.CloseIdleConnections()
		}
	}()
	var seq atomic.Int64
	return h.loop(ctx, secs, minJobs, func(ctx context.Context, c, i int) (op, error) {
		id := seq.Add(1)
		if tr != nil && id%3 == 2 {
			res, _, d, err := h.sortInProcess(ctx, i, nil)
			if err != nil {
				return op{}, err
			}
			res.Close()
			return op{d: d, to: toBase}, nil
		}
		var rt reqTiming
		status, err := h.post(ctx, hcs[c], i, bufs[c], &rt)
		if err != nil {
			return op{refused: status == http.StatusTooManyRequests}, err
		}
		d := rt.end.Sub(rt.start)
		if tr != nil && id%3 == 0 {
			return op{d: d, to: toPlain}, nil
		}
		if tr != nil {
			wrote := time.Unix(0, rt.wrote.Load())
			root := tr.add("request", 0, id, rt.start, rt.end)
			tr.add("server.upload", root, id, rt.start, wrote)
			tr.add("server.first_body_byte", root, id, rt.start, rt.firstByte)
			tr.add("server.wait", root, id, wrote, rt.firstByte)
			tr.add("server.download", root, id, rt.firstByte, rt.end)
		}
		return op{d: d}, nil
	})
}

// sortInProcess sorts body i with Engine.Sort on the server's engine, as
// the server would, and checks the output against the reference. jt, when
// non-nil, traces the job. It returns when the job started and how long
// it took.
func (h *httpBench) sortInProcess(ctx context.Context, i int, jt *jobTrace) (*colsort.Result, time.Time, time.Duration, error) {
	sum := sha256.New()
	src := colsort.FromReader(h.c.wl.body(h.c.seed, i), h.c.wl.records())
	dst := colsort.ToWriter(sum)
	var opts []colsort.Option
	if jt != nil {
		src, dst = jt.source(src), jt.sink(dst)
		opts = append(opts, colsort.WithProgress(jt.progress))
	}
	t := time.Now()
	res, err := h.eng.Sort(ctx, src, dst, opts...)
	d := time.Since(t)
	if err != nil {
		return nil, t, d, err
	}
	if err := checkSum(sum, h.ins[i].refHash); err != nil {
		res.Close()
		return nil, t, d, err
	}
	return res, t, d, nil
}

// inProcess runs a traced window of Engine.Sort calls on the server's
// engine over the same bodies, with the same number of concurrent
// callers, for the layers below the server.
func (h *httpBench) inProcess(ctx context.Context, secs float64, minJobs int, tr *tracer, l *layers) window {
	var mu sync.Mutex
	var seq atomic.Int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w := h.loop(ctx, secs, minJobs, func(ctx context.Context, _, i int) (op, error) {
		jt := newJobTrace()
		res, t, d, err := h.sortInProcess(ctx, i, jt)
		if err != nil {
			return op{}, err
		}
		defer res.Close()
		jt.record(tr, seq.Add(1), t, t.Add(d), false, 0)
		mu.Lock()
		// Concurrent jobs share the process counters: the window's are
		// split below.
		l.add(res, jt, procSample{}, 0, 0, h.c.wl.records())
		mu.Unlock()
		return op{d: d}, nil
	})
	runtime.ReadMemStats(&m1)
	if jobs := float64(len(w.lat)); jobs > 0 {
		l.allocMiB = []float64{float64(m1.TotalAlloc-m0.TotalAlloc) / mib / jobs}
		l.gcs = []float64{float64(m1.NumGC-m0.NumGC) / jobs}
		l.ioRead = []float64{float64(w.proc.rchar) / jobs}
		l.ioWrite = []float64{float64(w.proc.wchar) / jobs}
	}
	return w
}

// setup times the engine, server and listener through one warm-up request.
func (h *httpBench) setup(ctx context.Context, w *window) (float64, error) {
	t := time.Now()
	if err := h.start(); err != nil {
		return 0, err
	}
	hc := newClient()
	defer hc.CloseIdleConnections()
	w.attempted++
	var rt reqTiming
	if _, err := h.post(ctx, hc, 0, make([]byte, 256<<10), &rt); err != nil {
		w.fail("warm-up: %v", err)
	}
	return time.Since(t).Seconds(), nil
}

// runHTTP runs http-stream-8m and returns its outcome.
func runHTTP(c config, ins []input) (out outcome, err error) {
	ctx, cancel := runCtx()
	defer cancel()
	h := &httpBench{c: c, ins: ins}
	for i := range ins {
		ins[i].data = nil
	}
	if err := settle(); err != nil {
		fmt.Fprintf(c.out, "note: peak RSS not reset (%v); peak_rss_mib includes input generation\n", err)
	}
	fmt.Fprintf(c.out, "clients: %d closed-loop, one keep-alive connection each\n", clients())

	var setupW window
	var setups []float64
	for k := 0; k < c.setups; k++ {
		if k > 0 {
			if err := h.stop(); err != nil {
				return outcome{}, err
			}
		}
		s, err := h.setup(ctx, &setupW)
		if err != nil {
			return outcome{}, err
		}
		setups = append(setups, s)
	}
	defer func() {
		if e := h.stop(); err == nil && e != nil {
			err = e
		}
	}()

	if !c.trace {
		// Concurrent requests share one high-water mark: restart it, so
		// the set-ups do not count.
		if err := resetPeakRSS(); err != nil {
			fmt.Fprintf(c.out, "note: peak RSS not reset (%v); peak_rss_mib includes the set-ups\n", err)
		}
		w := h.requests(ctx, c.seconds, c.minJobs, nil)
		ms, err := endToEnd(c, w, setups)
		if err != nil {
			return outcome{}, err
		}
		fmt.Fprintf(c.out, "  refused with 429: %d\n", w.rejected)
		return outcome{attempted: w.attempted + setupW.attempted, failed: w.failed + setupW.failed, metrics: ms}, nil
	}

	// Traced run: a request window interleaving traced requests, untraced
	// ones and untraced in-process sorts, then a window of traced
	// in-process sorts of the same bodies for the layers below the server.
	fmt.Fprintf(c.out, "setup_s %.4f s (one set-up)\n", setups[0])
	p := &perLayer{tr: newTracer()}
	reqs := h.requests(ctx, c.seconds/2, traceMinJobs, p.tr)
	inproc := h.inProcess(ctx, c.seconds/2, traceMinJobs, p.tr, &p.l)
	p.untracedP50, p.tracedP50 = median(reqs.plainLat), median(reqs.lat)
	p.upload, _ = p.tr.byName("server.upload")
	p.firstByte, _ = p.tr.byName("server.first_body_byte")
	p.download, _ = p.tr.byName("server.download")
	p.serverOverhead = p.untracedP50 - median(reqs.baseLat)
	p.rejected = reqs.rejected
	fmt.Fprintf(c.out, "request p50 %.4f s over %d vs in-process Engine.Sort p50 %.4f s over %d (interleaved, both untraced)\n",
		p.untracedP50, len(reqs.plainLat), median(reqs.baseLat), len(reqs.baseLat))

	ms, err := finishTrace(c, p)
	att := setupW.attempted + reqs.attempted + inproc.attempted
	failed := setupW.failed + reqs.failed + inproc.failed
	return outcome{attempted: att, failed: failed, metrics: ms}, err
}
