package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"hidisc/internal/simserver"
)

// Agent is the worker side of the cluster membership protocol: it
// registers a hidisc-serve instance with a coordinator and keeps a
// heartbeat loop running until told to deregister. It rides the same
// HTTP wire as everything else — three JSON POSTs, no new transport.
type Agent struct {
	// Coordinator is the coordinator's base URL; Advertise is this
	// worker's own base URL as the fleet should dial it (its identity).
	Coordinator string
	Advertise   string
	// Server is the worker being advertised; the agent reads its
	// capacity, depth, drain flag and store state.
	Server *simserver.Server
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Logger receives membership events; nil logs nowhere.
	Logger *slog.Logger

	heartbeat time.Duration
}

func (a *Agent) httpc() *http.Client {
	if a.HTTPClient != nil {
		return a.HTTPClient
	}
	return http.DefaultClient
}

func (a *Agent) logger() *slog.Logger {
	if a.Logger != nil {
		return a.Logger
	}
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

// post sends one control-plane request; okStatus is the expected
// success code.
func (a *Agent) post(ctx context.Context, path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.httpc().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// register announces the worker and adopts the coordinator's heartbeat
// cadence.
func (a *Agent) register(ctx context.Context) error {
	workers, queue := a.Server.Capacity()
	req := RegisterRequest{
		URL: a.Advertise, Workers: workers, Queue: queue, Store: a.Server.StoreState(),
	}
	var resp RegisterResponse
	status, err := a.post(ctx, "/v1/cluster/register", req, &resp)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("register: coordinator answered HTTP %d", status)
	}
	if resp.HeartbeatMs > 0 {
		a.heartbeat = time.Duration(resp.HeartbeatMs) * time.Millisecond
	} else {
		a.heartbeat = time.Second
	}
	a.logger().Info("registered with coordinator",
		"coordinator", a.Coordinator, "advertise", a.Advertise,
		"heartbeat", a.heartbeat, "ttlMs", resp.TTLMs)
	return nil
}

// Run keeps the worker a fleet member until ctx ends: register (retried
// until the coordinator answers — worker and coordinator may start in
// either order), then heartbeat every interval. A 404 heartbeat means
// the coordinator no longer knows us (it restarted, or declared us dead
// during a stall) — re-register and carry on. Run returns only when ctx
// is cancelled; call Deregister afterwards for a graceful exit.
func (a *Agent) Run(ctx context.Context) {
	for a.register(ctx) != nil {
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Second):
		}
	}
	tick := time.NewTicker(a.heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		hb := HeartbeatRequest{
			URL:      a.Advertise,
			InFlight: a.Server.InFlight(),
			Draining: a.Server.Draining(),
			Store:    a.Server.StoreState(),
		}
		hctx, cancel := context.WithTimeout(ctx, a.heartbeat)
		status, err := a.post(hctx, "/v1/cluster/heartbeat", hb, nil)
		cancel()
		switch {
		case err != nil:
			// Coordinator unreachable: keep beating — it may be
			// restarting, and registration state survives on our side.
			a.logger().Warn("heartbeat failed", "err", err.Error())
		case status == http.StatusNotFound:
			// Forgotten (coordinator restart or presumed death):
			// re-register on the next loop turn.
			a.logger().Warn("coordinator forgot us; re-registering")
			if err := a.register(ctx); err != nil {
				a.logger().Warn("re-register failed", "err", err.Error())
			} else {
				tick.Reset(a.heartbeat)
			}
		}
	}
}

// Deregister announces a graceful departure (SIGTERM drain): the
// coordinator stops routing to this worker immediately and does not
// count the exit as a death. Best-effort — a dead coordinator cannot
// stop us from shutting down.
func (a *Agent) Deregister(ctx context.Context) {
	status, err := a.post(ctx, "/v1/cluster/deregister", DeregisterRequest{URL: a.Advertise}, nil)
	switch {
	case err != nil:
		a.logger().Warn("deregister failed", "err", err.Error())
	default:
		a.logger().Info("deregistered from coordinator", "status", status)
	}
}
