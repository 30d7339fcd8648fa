package server

import (
	"encoding/json"
	"net/http"
)

// Handler returns the HTTP API: the facade on the wire as POST
// /v1/query and POST /v1/batch (JSON bodies with source/target sets,
// modes, auto-planned engines and typed error codes — see package tcq),
// POST /v1/update (transactional op batches with per-op typed error
// codes), the peer-to-peer POST /v1/leg, and the operational GETs
// /stats, /healthz, /readyz and /metrics (the deployment's Prometheus
// registry in exposition text format).
//
// Every route is instrumented: tc_http_requests_total and
// tc_http_errors_total count per endpoint pattern, and
// tc_inflight_requests tracks requests currently being served.
func (s *Server) Handler() http.Handler {
	m := s.metrics
	metricsHandler := m.reg.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", m.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", m.instrument("/readyz", s.handleReadyz))
	mux.HandleFunc("POST /v1/query", m.instrument("/v1/query", s.handleV1Query))
	mux.HandleFunc("POST /v1/batch", m.instrument("/v1/batch", s.handleV1Batch))
	mux.HandleFunc("POST /v1/update", m.instrument("/v1/update", s.handleV1Update))
	mux.HandleFunc("POST /v1/leg", m.instrument("/v1/leg", s.handleV1Leg))
	mux.HandleFunc("GET /stats", m.instrument("/stats", s.handleStats))
	mux.HandleFunc("GET /metrics", m.instrument("/metrics", metricsHandler.ServeHTTP))
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ReadyzResponse is the GET /readyz body: liveness split from cluster
// readiness. A degraded node still answers every query correctly
// (remote-owned legs fall back to local execution), so readyz reports
// degradation as data with HTTP 200 — restarting the one healthy
// survivor because its PEERS are down would be exactly wrong.
type ReadyzResponse struct {
	// Status is "ok", or "degraded" when any peer breaker is not closed.
	Status string `json:"status"`
	// Breakers maps each remote peer to its breaker state; absent on
	// single-node deployments.
	Breakers map[string]string `json:"breakers,omitempty"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := ReadyzResponse{Status: "ok"}
	if s.cluster != nil {
		resp.Breakers = s.cluster.BreakerStates()
		if s.cluster.Degraded() {
			resp.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
