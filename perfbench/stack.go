package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"tridiag/eigen"
	"tridiag/eigen/cluster"
)

// serverConfig is eigserve's default worker configuration, 2 ms batch
// window included.
func serverConfig() eigen.ServerConfig {
	return eigen.ServerConfig{
		StallWindow:  10 * time.Second,
		MaxRetries:   2,
		BatchWindow:  2 * time.Millisecond,
		BatchMaxSize: 64,
		BatchMaxN:    256,
	}
}

// stack is the served path: an eigen.Server behind the worker HTTP handler,
// and a coordinator (with its own degraded-local server) in front of it,
// both listening on loopback.
type stack struct {
	server, local *eigen.Server
	coord         *cluster.Coordinator
	worker        *http.Server
	front         *http.Server
	workerURL     string
	coordURL      string
	client        *http.Client
	serving       sync.WaitGroup // the two Serve loops
}

// listen serves h on a loopback port until hs.Shutdown; the stack's
// serving group waits for the Serve loop.
func (s *stack) listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      10 * time.Minute,
		ErrorLog:          log.New(io.Discard, "", 0),
	}
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("perfbench: serve: %v", err)
		}
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

// startStack builds the served path and waits until both tiers answer their
// health probes. conns caps the client's connections per host.
func startStack(conns int) (*stack, error) {
	s := &stack{server: eigen.NewServer(serverConfig()), local: eigen.NewServer(serverConfig())}
	httpCfg := cluster.HTTPConfig{MaxBodyBytes: 64 << 20, Logf: log.Printf}
	var err error
	if s.worker, s.workerURL, err = s.listen(cluster.NewWorkerHandler(s.server, httpCfg)); err != nil {
		s.close()
		return nil, err
	}
	s.coord, err = cluster.NewCoordinator(cluster.Config{
		Workers:          []string{s.workerURL},
		Local:            s.local,
		ProbeInterval:    250 * time.Millisecond,
		AttemptTimeout:   60 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  2 * time.Second,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	if s.front, s.coordURL, err = s.listen(cluster.NewCoordinatorHandler(s.coord, httpCfg)); err != nil {
		s.close()
		return nil, err
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	for _, u := range []string{s.workerURL, s.coordURL} {
		if err := s.probe(u); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *stack) probe(base string) error {
	resp, err := s.client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("health probe %s: %w", base, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained for reuse; the status decides
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("health probe %s: %s", base, resp.Status)
	}
	return nil
}

// close stops every server and goroutine of the stack and waits for them.
// Shutdown errors are dropped: they only report a drain cut short by the
// deadline, after which everything is closed anyway.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer s.serving.Wait()
	if s.front != nil {
		s.front.Shutdown(ctx)
	}
	if s.coord != nil {
		s.coord.Shutdown(ctx) // drains the local server too
	} else if s.local != nil {
		s.local.Shutdown(ctx)
	}
	if s.worker != nil {
		s.worker.Shutdown(ctx)
	}
	if s.server != nil {
		s.server.Shutdown(ctx)
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// wireTiming splits one HTTP solve into the client's own work and the wait
// for the server.
type wireTiming struct {
	encode, roundTrip, decode time.Duration
	respBytes                 int
}

// post sends one solve request and decodes the answer. A non-200 status is
// an error.
func (s *stack) post(url string, req *cluster.SolveRequest) (*cluster.SolveResponse, wireTiming, error) {
	var wt wireTiming
	t0 := time.Now()
	body, err := json.Marshal(req)
	wt.encode = time.Since(t0)
	if err != nil {
		return nil, wt, err
	}
	t1 := time.Now()
	resp, err := s.client.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, wt, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	wt.roundTrip = time.Since(t1)
	wt.respBytes = len(raw)
	if err != nil {
		return nil, wt, err
	}
	t2 := time.Now()
	var sr cluster.SolveResponse
	err = json.Unmarshal(raw, &sr)
	wt.decode = time.Since(t2)
	if err != nil {
		return nil, wt, fmt.Errorf("decode response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return &sr, wt, fmt.Errorf("%s: %s", resp.Status, sr.Error)
	}
	return &sr, wt, nil
}
