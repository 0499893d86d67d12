package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/fleetd"
)

// serveInputs is the serve workload's input, generated from the seed.
type serveInputs struct {
	platform fleet.Platform
	programs []fault.Program // the server's scenario table
	seed     int64
	// background is the fixed tenant that keeps the fleet loaded.
	background fleetd.TenantSpec
	// churn draws the small tenants in a seed-determined order.
	churn *rand.Rand
	// churnScenarios is the session count of a churn tenant (one
	// patient, that many scenarios).
	churnScenarios int
	// rounds is how many lock-step rounds a churn client watches after
	// its tenant's first record; a multiple of the sink epoch (8), so
	// the measured interval spans whole epoch deliveries.
	rounds int
	setups int
}

func serveInputsFor(opt options) serveInputs {
	bgPatients, bgScenarios, rounds, setups := 10, 40, 16, 9
	if opt.toy {
		bgPatients, bgScenarios, rounds, setups = 2, 5, 8, 2
	}
	// The background tenant is a fixed stratified slice of the matrix,
	// so seeds differ in draws (fleet seed, churn order), not in load.
	progs := fault.CampaignPrograms(nil)
	var bg fleetd.TenantSpec
	for i := 0; i < bgScenarios; i++ {
		bg.Scenarios = append(bg.Scenarios, i*len(progs)/bgScenarios)
	}
	for p := 0; p < bgPatients; p++ {
		bg.Patients = append(bg.Patients, p)
	}
	return serveInputs{
		platform:       fleet.Platform(experiment.T1DS2013()),
		programs:       progs,
		seed:           opt.seed,
		background:     bg,
		churn:          rand.New(rand.NewSource(opt.seed)),
		churnScenarios: 2,
		rounds:         rounds,
		setups:         setups,
	}
}

// nextChurn draws the next churn tenant: one patient, distinct
// scenarios.
func (in *serveInputs) nextChurn() fleetd.TenantSpec {
	return fleetd.TenantSpec{
		Patients:  []int{in.churn.Intn(in.platform.NumPatients)},
		Scenarios: in.churn.Perm(len(in.programs))[:in.churnScenarios],
	}
}

// liveServer is one in-process fleetd behind a loopback listener.
type liveServer struct {
	fd      *fleetd.Server
	http    *http.Server
	base    string
	served  chan error
	started time.Time
}

func startServer(in serveInputs, platform fleet.Platform) (*liveServer, error) {
	fd, err := fleetd.New(fleetd.Config{
		Platform:     platform,
		Scenarios:    in.programs,
		MaxSessions:  512, // the background tenant plus churn, with headroom
		Seed:         in.seed,
		AlertFloor:   math.NaN(),
		StreamBuffer: 4096, // one 8-round epoch of the 400-session background tenant fits
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{
		fd:      fd,
		http:    &http.Server{Handler: fd.Handler()},
		base:    "http://" + ln.Addr().String(),
		served:  make(chan error, 1),
		started: time.Now(),
	}
	if err := fd.Start(context.Background()); err != nil {
		ln.Close()
		return nil, err
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the fleet (ending every stream), then shuts the HTTP
// server down and waits for it.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := s.fd.Drain(ctx)
	herr := s.http.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	return errors.Join(derr, herr)
}

// requestTimeout bounds every request and stream, so a server that
// stops answering fails the run instead of hanging it.
const requestTimeout = 30 * time.Second

// client is the closed-loop churn client: one goroutine, at most two
// connections (one telemetry stream, one for requests).
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and returns the status and round-trip time.
func (c *client) do(method, path string, body any) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(data)
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(t0), err
}

// stream is one open tenant telemetry stream.
type stream struct {
	cancel context.CancelFunc
	body   io.ReadCloser
	lines  *bufio.Scanner
}

func (c *client) openStream(tenant string) (*stream, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/tenants/"+tenant+"/telemetry", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("telemetry stream for %s: status %d", tenant, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	return &stream{cancel: cancel, body: resp.Body, lines: sc}, nil
}

// record is the part of a telemetry line the client checks.
type record struct {
	Kind    string `json:"kind"`
	Session int    `json:"session"`
	Group   string `json:"group"`
	Replica int    `json:"replica"`
	Step    int    `json:"step"`
}

// next reads one record and its arrival time.
func (s *stream) next() (record, time.Time, error) {
	if !s.lines.Scan() {
		err := s.lines.Err()
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return record{}, time.Time{}, err
	}
	at := time.Now()
	var r record
	err := json.Unmarshal(s.lines.Bytes(), &r)
	return r, at, err
}

func (s *stream) close() {
	s.cancel()
	s.body.Close()
}

// churnStats collects the timed phase's per-tenant measurements.
type churnStats struct {
	admitMs, putMs, deleteMs []float64
	// rounds is the lock-step round rate over each tenant's watch
	// window.
	rounds []float64
}

// churnOne runs one tenant lifecycle: PUT, open the stream, read the
// first record (admission latency), watch in.rounds lock-step rounds of
// one session, DELETE, close the stream.
func churnOne(c *client, in *serveInputs, id string, chk *checker, st *churnStats) error {
	spec := in.nextChurn()
	t0 := time.Now()
	code, rtt, err := c.do(http.MethodPut, "/v1/tenants/"+id, spec)
	if err != nil {
		return err
	}
	chk.expect("put.2xx", code/100 == 2)
	st.putMs = append(st.putMs, ms(rtt))
	s, err := c.openStream(id)
	if err != nil {
		return err
	}
	defer s.close()

	type lane struct{ session, replica int }
	last := make(map[lane]int) // last robustness step per session replica
	owned, contiguous := true, true
	var (
		first     lane
		firstStep int
		firstAt   time.Time
		haveFirst bool
		admitted  bool
		watchDone bool
	)
	for !watchDone {
		r, at, err := s.next()
		if err != nil {
			return fmt.Errorf("tenant %s stream: %w", id, err)
		}
		if !admitted {
			admitted = true
			st.admitMs = append(st.admitMs, ms(at.Sub(t0)))
		}
		owned = owned && r.Group == id
		if r.Kind != "robustness" {
			continue
		}
		k := lane{r.Session, r.Replica}
		if prev, ok := last[k]; ok && r.Step != prev+1 {
			contiguous = false
		}
		last[k] = r.Step
		switch {
		case !haveFirst:
			first, firstStep, firstAt, haveFirst = k, r.Step, at, true
		case k == first && r.Step >= firstStep+in.rounds:
			st.rounds = append(st.rounds, float64(r.Step-firstStep)/at.Sub(firstAt).Seconds())
			watchDone = true
		}
	}
	chk.expect("records.tenant", owned)
	chk.expect("records.contiguous", contiguous)

	code, rtt, err = c.do(http.MethodDelete, "/v1/tenants/"+id, nil)
	if err != nil {
		return err
	}
	chk.expect("delete.2xx", code/100 == 2)
	st.deleteMs = append(st.deleteMs, ms(rtt))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// startLoaded starts a server, admits the background tenant and waits
// for its first telemetry record.
func startLoaded(in serveInputs, platform fleet.Platform) (*liveServer, error) {
	s, err := startServer(in, platform)
	if err != nil {
		return nil, err
	}
	c := newClient(s.base)
	defer c.close()
	err = func() error {
		code, _, err := c.do(http.MethodPut, "/v1/tenants/background", in.background)
		if err != nil {
			return err
		}
		if code/100 != 2 {
			return fmt.Errorf("background tenant: status %d", code)
		}
		st, err := c.openStream("background")
		if err != nil {
			return err
		}
		defer st.close()
		_, _, err = st.next()
		return err
	}()
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

// runServe measures churn-tenant lifecycles against a loaded server for
// opt.seconds.
func runServe(opt options) (*report, error) {
	rep := newReport("serve")
	in := serveInputsFor(opt)
	var (
		lay *layers
		sp  *spans
	)
	platform := in.platform
	if opt.trace {
		lay, sp = &layers{}, newSpans()
	}
	var srv *liveServer
	setup, err := timeSetup(in.setups, func(last bool) error {
		p := platform
		if last && lay != nil {
			p = lay.platform(platform)
		}
		s, err := startLoaded(in, p)
		if err != nil {
			return err
		}
		if last {
			srv = s
			return nil
		}
		return s.stop()
	})
	if err != nil {
		return nil, err
	}

	c := newClient(srv.base)
	var st churnStats
	var tenants int
	u, err := measure(func() error {
		deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
		for tenants == 0 || time.Now().Before(deadline) {
			id := fmt.Sprintf("churn-%d", tenants)
			if _, err := sp.do("fleetd.tenant", -1, func() error {
				return churnOne(c, &in, id, rep.check, &st)
			}); err != nil {
				return err
			}
			tenants++
		}
		return nil
	})
	if err != nil {
		c.close()
		return nil, errors.Join(err, srv.stop())
	}
	rss := peakRSSMB()
	var status fleetd.Status
	err = func() error {
		resp, err := c.http.Get(srv.base + "/v1/status")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		return json.NewDecoder(resp.Body).Decode(&status)
	}()
	c.close()
	lifetime := time.Since(srv.started)
	if stopErr := srv.stop(); err != nil || stopErr != nil {
		return nil, errors.Join(err, stopErr)
	}
	rep.check.expect("status.rejected", status.Rejected == 0)
	rep.check.expect("status.stream_dropped", status.StreamDropped == 0)
	rep.note("serve: %d churn tenants, %d live at the end, %d rejected, %d stream drops",
		tenants, status.Live, status.Rejected, status.StreamDropped)

	live := float64(len(in.background.Patients)*len(in.background.Scenarios) + in.churnScenarios)
	if opt.trace {
		// Layer totals cover the server's whole life; report them per
		// second of it. Allocation and GC cover the timed phase.
		lm := engineLayers(lay.totals(), lifetime, u)
		for name, v := range lm {
			lm[name] = v / lifetime.Seconds()
		}
		lm["runtime.alloc_mb"] = u.allocMB / u.wall
		lm["runtime.gc_cycles"] = u.gcCycles / u.wall
		lm["fleetd.put_ms"] = median(st.putMs)
		lm["fleetd.delete_ms"] = median(st.deleteMs)
		lm["fleetd.admit_ms_p95"] = quantile(st.admitMs, 0.95)
		lm["fleetd.rounds_per_s"] = median(st.rounds)
		lm["fleetd.stream_dropped"] = float64(status.StreamDropped)
		lm["fleetd.rejected"] = float64(status.Rejected)
		setPerLayer(rep, []map[string]float64{lm})
		rep.set("tracing.wall_s", "s", median(st.admitMs)/1e3)
		return rep, writeTrace(opt, sp, lay)
	}
	rep.setEndToEnd(setup, median(st.admitMs)/1e3, median(st.rounds)*live, u.cpu/float64(tenants), rss)
	return rep, nil
}
