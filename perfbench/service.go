package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sort"
	"time"

	"beepmis/internal/obs"
	"beepmis/internal/rng"
	"beepmis/internal/scenario"
	"beepmis/internal/service"
)

// service-mixed: an open loop with Poisson arrivals at one fixed rate
// against an in-process service.Manager with misd's defaults (one job
// worker, a queue of 64, engine metrics on), served by its HTTP handler
// over loopback. About half the requests repeat an earlier body byte
// for byte; they are the cache's reads. The rest carry fresh seeds and
// alternate between a quickstart-shaped compute job and a small noisy
// grid that exercises the fault layer. This is the one workload where
// HTTP, compile and hash, the cache and the queue do most of the work.

const (
	// serviceRate is the arrival rate in requests/s: a quarter of the
	// rate at which p99 latency stops meeting latencyLimit on a 2-core
	// host. At half that rate the p90 swung by a quarter between runs;
	// README.md records the sweep.
	serviceRate = 50.0
	// latencyLimit is the latency a request must meet to count toward
	// goodput (a record field).
	latencyLimit = 250 * time.Millisecond
	// requestTimeout bounds one request from its due time; a request
	// past it counts as failed.
	requestTimeout = 10 * time.Second
	// hitShare is the probability a request repeats an earlier body.
	hitShare = 0.5
)

// missShapes are the two miss bodies; %d is the fresh seed. The noisy
// grid uses spurious-beep noise: unlike beep loss it can never break
// independence, so every fresh seed passes the correctness gate.
func missShapes(short bool) [2]string {
	quick := `{"graph":{"family":"gnp","n":500,"p":0.5},"algorithm":"feedback","trials":5,"seed":%d}`
	if short {
		quick = `{"graph":{"family":"gnp","n":100,"p":0.5},"algorithm":"feedback","trials":2,"seed":%d}`
	}
	return [2]string{
		quick,
		`{"graph":{"family":"grid","rows":10,"cols":10},"algorithm":"feedback","trials":3,"seed":%d,"faults":{"spurious":0.05,"wake":{"kind":"uniform","window":12}}}`,
	}
}

// svcRequest is one schedule entry.
type svcRequest struct {
	at   time.Duration // due time, from the schedule's start
	body []byte
	hash string // the content hash the client expects back
	hit  bool   // repeats an earlier body
	// quick marks a miss of the quickstart shape (missShapes[0]).
	quick bool
}

// svcSchedule builds the request stream for window from the seed, and
// compiles every distinct body to learn its hash. compileMs holds each
// miss body's compile time. Arrivals are a Poisson process conditioned
// on its count: rate × window arrival times drawn uniformly and sorted.
// Fixing the count removes the run-to-run swing in offered load that an
// unconditioned process adds, without changing how arrivals bunch.
func svcSchedule(seed uint64, window time.Duration, short bool) ([]svcRequest, []float64, error) {
	master := rng.New(seed)
	arrivals := master.Stream(streamArrivals)
	mix := master.Stream(streamMix)
	seeds := master.Stream(streamJobSeeds)
	shapes := missShapes(short)
	at := make([]float64, int(math.Round(serviceRate*window.Seconds())))
	for i := range at {
		at[i] = arrivals.Float64() * window.Seconds()
	}
	sort.Float64s(at)
	reqs := make([]svcRequest, 0, len(at))
	var misses []int
	var compileMs []float64
	for _, a := range at {
		due := time.Duration(a * float64(time.Second))
		if len(misses) > 0 && mix.Float64() < hitShare {
			r := reqs[misses[mix.Intn(len(misses))]]
			reqs = append(reqs, svcRequest{at: due, body: r.body, hash: r.hash, hit: true})
			continue
		}
		quick := len(misses)%2 == 0
		body := fmt.Appendf(nil, shapes[len(misses)%2], seeds.Uint64())
		t0 := time.Now()
		c, err := scenario.ParseCompiledBytes(body)
		if err != nil {
			return nil, nil, err
		}
		compileMs = append(compileMs, ms(time.Since(t0)))
		misses = append(misses, len(reqs))
		reqs = append(reqs, svcRequest{at: due, body: body, hash: c.Hash, quick: quick})
	}
	return reqs, compileMs, nil
}

// svcServer is one booted service: manager, HTTP server on loopback,
// and a client limited to nproc connections.
type svcServer struct {
	mgr       *service.Manager
	sm        *obs.ServiceMetrics
	em        *obs.EngineMetrics
	srv       *http.Server
	served    chan error
	base      string
	transport *http.Transport
	client    *http.Client
}

func bootServer() (*svcServer, error) {
	s := &svcServer{sm: &obs.ServiceMetrics{}, em: &obs.EngineMetrics{}, served: make(chan error, 1)}
	s.mgr = service.New(service.Options{Workers: 1, QueueCap: 64, TrialWorkers: 1, Metrics: s.sm, EngineMetrics: s.em})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.mgr.Close(context.Background())
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.mgr.Handler(), ReadHeaderTimeout: requestTimeout}
	go func() { s.served <- s.srv.Serve(ln) }()
	conns := runtime.NumCPU()
	s.transport = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	s.client = &http.Client{Transport: s.transport}
	return s, nil
}

// close stops the HTTP server, then the manager, and waits for both.
func (s *svcServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	s.transport.CloseIdleConnections()
	err := s.srv.Shutdown(ctx)
	if serveErr := <-s.served; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	if cerr := s.mgr.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// svcResult is one request's outcome and timestamps.
type svcResult struct {
	err        error
	body       []byte
	id         string
	status     int // submit status
	executed   bool
	due, sent  time.Time
	replied    time.Time
	done, end  time.Time
	connWaits  [2][2]time.Time // submit and result connection waits
	queueMs    float64
	runMs      float64
	jobStarted time.Time
	jobEnded   time.Time
}

func (r *svcResult) latency() time.Duration { return r.end.Sub(r.due) }

// do runs one request: submit, wait for the job, fetch its bytes.
// Completion is awaited on the Manager's Done channel, the in-process
// equivalent of the SSE terminal event, so no poll interval quantises
// latency. traced adds connection-wait hooks.
func (s *svcServer) do(ctx context.Context, req svcRequest, due time.Time, traced bool) *svcResult {
	r := &svcResult{due: due, sent: time.Now()}
	ctx, cancel := context.WithDeadline(ctx, due.Add(requestTimeout))
	defer cancel()

	var reply struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	raw, status, err := s.call(ctx, http.MethodPost, "/v1/scenarios", req.body, traced, &r.connWaits[0])
	r.replied = time.Now()
	if err == nil && status != http.StatusOK && status != http.StatusAccepted {
		err = fmt.Errorf("submit: status %d: %s", status, bytes.TrimSpace(raw))
	}
	if err == nil {
		err = json.Unmarshal(raw, &reply)
	}
	if err != nil {
		r.err = err
		return r
	}
	r.id = reply.ID
	r.executed = status == http.StatusAccepted
	job, ok := s.mgr.Job(reply.ID)
	if !ok {
		r.err = fmt.Errorf("job %.12s vanished", reply.ID)
		return r
	}
	select {
	case <-s.mgr.Done(job):
	case <-ctx.Done():
		r.err = fmt.Errorf("wait: %w", ctx.Err())
		return r
	}
	r.done = time.Now()
	view := s.mgr.View(job)
	r.queueMs, r.runMs, r.jobStarted, r.jobEnded = view.QueueMs, view.RunMs, view.Started, view.Finished

	raw, status, err = s.call(ctx, http.MethodGet, "/v1/scenarios/"+reply.ID+"/result", nil, traced, &r.connWaits[1])
	r.end = time.Now()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("result: status %d", status)
	}
	r.err, r.body = err, raw
	return r
}

// call makes one HTTP round trip and returns the body and status.
func (s *svcServer) call(ctx context.Context, method, path string, body []byte, traced bool, wait *[2]time.Time) ([]byte, int, error) {
	if traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GetConn: func(string) { wait[0] = time.Now() },
			GotConn: func(httptrace.GotConnInfo) { wait[1] = time.Now() },
		})
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return raw, resp.StatusCode, err
}

// svcRun is one pass of the schedule against a fresh server.
type svcRun struct {
	results []*svcResult
	late    []float64 // generator lateness per request, ms
	// Deltas of the server's telemetry over the timed window.
	hits, misses, coalesced, rejected uint64
	highWater                         int64
	phaseNs                           [obs.PhaseCount]uint64
	simRuns                           uint64
	mem                               *memSampler
	// retainedMB is the live heap once the schedule has ended and a
	// collection has run: what the service keeps, its result cache
	// and job table.
	retainedMB float64
	// cpuSeconds is the process's CPU time over the schedule.
	cpuSeconds float64
	// span runs from the schedule's start to the last completion.
	span time.Duration
}

// runSchedule boots a server, warms it up, and plays reqs against it.
func runSchedule(ctx context.Context, reqs []svcRequest, warm [][]byte, traced bool) (*svcRun, error) {
	s, err := bootServer()
	if err != nil {
		return nil, err
	}
	run, err := playSchedule(ctx, s, reqs, warm, traced)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return run, err
}

// warmUp sends each warm body once and checks what comes back.
func warmUp(ctx context.Context, s *svcServer, warm [][]byte) error {
	for _, body := range warm {
		c, err := scenario.ParseCompiledBytes(body)
		if err != nil {
			return err
		}
		r := s.do(ctx, svcRequest{body: body}, time.Now(), false)
		if r.err != nil {
			return fmt.Errorf("warm-up: %w", r.err)
		}
		if _, err := checkReportBytes(r.body, c.Hash); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func playSchedule(ctx context.Context, s *svcServer, reqs []svcRequest, warm [][]byte, traced bool) (*svcRun, error) {
	if err := warmUp(ctx, s, warm); err != nil {
		return nil, err
	}
	run := &svcRun{results: make([]*svcResult, len(reqs)), mem: newMemSampler()}
	hits0, misses0, coal0, rej0 := s.sm.CacheHits.Value(), s.sm.CacheMisses.Value(), s.sm.Coalesced.Value(), s.sm.Rejected.Value()
	phase0, runs0 := phaseTotals(s.em)

	offsets := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		offsets[i] = r.at
	}
	start, cpu0 := time.Now(), cpuSeconds()
	run.late = dispatch(ctx, offsets, func(i int, due time.Time) {
		run.results[i] = s.do(ctx, reqs[i], due, traced)
		run.mem.add()
	})

	run.span = time.Since(start)
	run.cpuSeconds = cpuSeconds() - cpu0
	run.retainedMB = liveHeapMB()
	run.hits = s.sm.CacheHits.Value() - hits0
	run.misses = s.sm.CacheMisses.Value() - misses0
	run.coalesced = s.sm.Coalesced.Value() - coal0
	run.rejected = s.sm.Rejected.Value() - rej0
	run.highWater = s.sm.QueueHighWater.Value()
	phase1, runs1 := phaseTotals(s.em)
	for p := range phase0 {
		run.phaseNs[p] = phase1[p] - phase0[p]
	}
	run.simRuns = runs1 - runs0
	return run, ctx.Err()
}

// svcCheck is the correctness verdict over one pass.
type svcCheck struct {
	completed, errors, wrong int
	good                     int // correct and within latencyLimit
	latMs                    []float64
	hitLatMs                 []float64 // latencies of the requests repeating a body
	// quickLatMs are the latencies of the correct quickstart misses
	// and quickRunMs their jobs' run times, start to finish on the
	// server.
	quickLatMs  []float64
	quickRunMs  []float64
	digest      string
	reports     []*scenario.Report
	reportBytes []int
	encodeMs    []float64
}

// checkRun applies the gate to every served result, in schedule order:
// the id is the hash the client computed, the first bytes served for a
// hash decode to a report whose verdicts hold and whose canonical
// encoding is those bytes, and every later request for the hash was
// served the same bytes.
func checkRun(reqs []svcRequest, run *svcRun) svcCheck {
	var c svcCheck
	dig := newDigest()
	first := map[string][]byte{}
	for i, r := range run.results {
		if r.err != nil {
			c.errors++
			continue
		}
		c.completed++
		c.latMs = append(c.latMs, ms(r.latency()))
		if reqs[i].hit {
			c.hitLatMs = append(c.hitLatMs, ms(r.latency()))
		}
		dig.add(r.body)
		err := error(nil)
		switch prev, seen := first[reqs[i].hash]; {
		case r.id != reqs[i].hash:
			err = fmt.Errorf("served job %.12s for hash %.12s", r.id, reqs[i].hash)
		case seen:
			err = checkSameBytes(prev, r.body)
		default:
			first[reqs[i].hash] = r.body
			var rep *scenario.Report
			if rep, err = checkReportBytes(r.body, reqs[i].hash); err == nil {
				t0 := time.Now()
				var enc []byte
				enc, err = rep.JSON()
				c.encodeMs = append(c.encodeMs, ms(time.Since(t0)))
				if err == nil && !bytes.Equal(enc, r.body) {
					err = fmt.Errorf("served bytes are not the report's canonical encoding")
				}
				if err == nil && reqs[i].quick {
					c.quickLatMs = append(c.quickLatMs, ms(r.latency()))
					c.quickRunMs = append(c.quickRunMs, r.runMs)
				}
				c.reports = append(c.reports, rep)
				c.reportBytes = append(c.reportBytes, len(r.body))
			}
		}
		if err != nil {
			c.wrong++
		} else if r.latency() <= latencyLimit {
			c.good++
		}
	}
	c.digest = dig.sum()
	return c
}

func runServiceMixed(ctx context.Context, cfg config) (*outcome, error) {
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		window /= 2
	}
	shapes := missShapes(cfg.short)
	warmSeeds := rng.New(cfg.seed).Stream(streamWarmupSeeds)
	warm := [][]byte{
		fmt.Appendf(nil, shapes[0], warmSeeds.Uint64()),
		fmt.Appendf(nil, shapes[1], warmSeeds.Uint64()),
	}

	var reqs []svcRequest
	var compileMs []float64
	var server *svcServer
	setup, err := setupTimes(cfg.setupPasses(21), func() error {
		if server != nil {
			if err := server.close(); err != nil {
				return err
			}
			server = nil
		}
		var err error
		if reqs, compileMs, err = svcSchedule(cfg.seed, window, cfg.short); err != nil {
			return err
		}
		if server, err = bootServer(); err != nil {
			return err
		}
		return warmUp(ctx, server, warm)
	})
	if err != nil {
		if server != nil {
			_ = server.close()
		}
		return nil, fmt.Errorf("service-mixed set-up: %w", err)
	}

	out := &outcome{metrics: map[string]float64{}, record: map[string]any{
		"rate": serviceRate, "latency_limit_ms": ms(latencyLimit), "setup_s_reps": setup.cpu, "setup_wall_s_reps": setup.wall, "requests": len(reqs),
		"startup_s": time.Since(processStart).Seconds(),
	}}
	// The set-up's server is warm; the first pass runs on it.
	run, err := playSchedule(ctx, server, reqs, nil, false)
	if cerr := server.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	check := checkRun(reqs, run)
	out.attempted = len(reqs)
	out.errors, out.wrong = len(reqs)-check.completed, check.wrong
	out.record["digest"] = check.digest
	out.record["samples"] = len(check.latMs)
	out.record["hit_samples"] = len(check.hitLatMs)
	out.record["latency_ms_p50"] = quantile(check.latMs, 0.5)
	out.record["op_ms_p90"] = quantile(check.latMs, 0.9)
	out.record["latency_ms_p99"] = quantile(check.latMs, 0.99)
	out.record["gen_late_ms_p99"] = quantile(run.late, 0.99)
	out.record["goodput_rps"] = float64(check.good) / run.span.Seconds()
	out.record["cache_hits"], out.record["cache_misses"], out.record["coalesced"] = run.hits, run.misses, run.coalesced

	if !cfg.trace {
		// The median is taken over the reads: the all-request median
		// sits on the shoulder between reads (about 1 ms) and writes
		// (tens of ms) and swings with the share of writes that queue.
		out.metrics["op_ms_p50"] = quantile(check.hitLatMs, 0.5)
		// work_per_cpu_s is the requests served correctly per second
		// of the process's CPU time over the schedule: what a request
		// costs, load generator included, most of it the quickstart
		// jobs' compute. Wall-time readings of the writes moved with
		// the host: the quickstart jobs' median run time (the record
		// field quick_run_ms_p50) went from 23 to 43 ms between runs
		// of one build as the host's steal time rose, and their median
		// latency (quick_ms_p50), which adds the queue, spread 0.20
		// and 0.32 over two sets of ten runs. Goodput cannot be
		// bounded either: the request count is fixed and at this rate
		// nearly every request meets latencyLimit, so it reads the
		// arrival rate whatever the misses cost.
		out.metrics["work_per_cpu_s"] = float64(check.completed-check.wrong) / run.cpuSeconds
		out.record["quick_ms_p50"] = quantile(check.quickLatMs, 0.5)
		out.record["quick_run_ms_p50"] = quantile(check.quickRunMs, 0.5)
		out.metrics["setup_s"] = quantile(setup.cpu, 0.5)
		// heap_live_mb is the heap the service retains. The median of
		// the live heap sampled at each completion, as the closed
		// loops report it, is the record field heap_live_mb_sampled:
		// it also counts the running job's graph when a collection
		// falls inside a job, which depends on the host's timing; over
		// sets of five seeds it spread 0.13 to 0.23.
		out.metrics["heap_live_mb"] = run.retainedMB
		out.record["heap_live_mb_sampled"] = run.mem.median()
		return out, nil
	}

	// Traced pass: the same schedule on a fresh server.
	traced, err := runSchedule(ctx, reqs, warm, true)
	if err != nil {
		return nil, err
	}
	tcheck := checkRun(reqs, traced)
	out.attempted += len(reqs)
	out.errors += len(reqs) - tcheck.completed
	out.wrong += tcheck.wrong
	if tcheck.digest != check.digest {
		out.wrong++
	}
	var untracedSum, tracedSum float64
	for _, v := range check.latMs {
		untracedSum += v
	}
	for _, v := range tcheck.latMs {
		tracedSum += v
	}
	out.metrics["trace.overhead_share"] = tracedSum/untracedSum - 1
	out.metrics["load.latency_ms_p99"] = quantile(check.latMs, 0.99)

	tr := newTracer()
	counts := &layerCounts{}
	var submitMs, resultMs, queueMs, runMs, connMs []float64
	for i, r := range traced.results {
		if r.err != nil || r.end.IsZero() {
			continue
		}
		job := int32(i)
		root := tr.add("request", noSpan, job, r.due, r.end)
		tr.add("load.late", root, job, r.due, r.sent)
		sub := tr.add("service.submit", root, job, r.sent, r.replied)
		wait := tr.add("service.wait", root, job, r.replied, r.done)
		res := tr.add("service.result", root, job, r.done, r.end)
		for k, parent := range []int32{sub, res} {
			if w := r.connWaits[k]; !w[0].IsZero() && !w[1].IsZero() {
				tr.add("load.conn_wait", parent, job, w[0], w[1])
				connMs = append(connMs, ms(w[1].Sub(w[0])))
			}
		}
		submitMs = append(submitMs, ms(r.replied.Sub(r.sent)))
		resultMs = append(resultMs, ms(r.end.Sub(r.done)))
		if r.executed {
			// The job's run, clipped to the wait it overlaps.
			tr.add("scenario.run", wait, job, later(r.jobStarted, r.replied), earlier(r.jobEnded, r.done))
			queueMs = append(queueMs, r.queueMs)
			runMs = append(runMs, r.runMs)
		}
	}
	for i, rep := range tcheck.reports {
		for _, u := range rep.Units {
			for _, rounds := range u.TrialRounds {
				counts.simRuns++
				counts.rounds += int64(rounds)
				counts.nodeRounds += int64(u.Nodes) * int64(rounds)
			}
		}
		counts.reportBytes += int64(tcheck.reportBytes[i])
		counts.reports++
	}
	var roundLoopNs uint64
	for _, ns := range traced.phaseNs {
		roundLoopNs += ns
	}
	layerMetrics(out, tr, traced.phaseNs, traced.simRuns, counts)
	out.record["hit_self_shares"] = tr.accountJobs(func(job int32) bool { return reqs[job].hit }).shares()
	out.record["miss_self_shares"] = tr.accountJobs(func(job int32) bool { return !reqs[job].hit }).shares()
	m := out.metrics
	m["scenario.compile_ms"] = mean(compileMs)
	m["scenario.encode_ms"] = mean(tcheck.encodeMs)
	m["sim.run_ms"] = perRun(int64(roundLoopNs), int64(traced.simRuns)) / 1e6
	m["service.submit_ms"] = mean(submitMs)
	m["service.result_ms"] = mean(resultMs)
	m["service.queue_ms"] = mean(queueMs)
	m["service.run_ms"] = mean(runMs)
	submissions := traced.hits + traced.misses + traced.coalesced + traced.rejected
	m["service.submissions"] = float64(submissions)
	if submissions > 0 {
		m["service.cache_hit_ratio"] = float64(traced.hits) / float64(submissions)
	}
	m["service.rejected"] = float64(traced.rejected)
	m["service.queue_high_water"] = float64(traced.highWater)
	m["load.gen_late_ms_p99"] = quantile(traced.late, 0.99)
	m["load.conn_wait_ms"] = mean(connMs)
	path, err := tr.writeSpans(cfg.spansDir, cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	out.record["spans"] = path
	return out, nil
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func earlier(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
