package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"codedterasort/internal/cluster"
)

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs          submit a job ({tenant, spec}); 202 + status
//	GET  /v1/jobs          list jobs (?tenant= filters)
//	GET  /v1/jobs/{id}     one job's status (?wait=30s long-polls until
//	                       the job finishes or the wait elapses)
//	POST /v1/drain         begin graceful drain; 202 immediately
//	GET  /metrics          Prometheus text exposition
//	GET  /healthz          200 while admitting, 503 once draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the connection, not the payload, is the only failure mode left
}

// statusFor maps service errors onto HTTP status codes: the caller's own
// budget (429), shared backpressure and drain (503), bad input (400).
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrRateLimited), errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrBacklogFull):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	// A spec carries no records, so a submit body is capped like a
	// cluster control frame.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, cluster.MaxControlFrame))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, apiError{Error: fmt.Sprintf("service: bad submit body: %v", err)})
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		writeJSON(w, statusFor(err), apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs(r.URL.Query().Get("tenant")))
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if waitSpec := r.URL.Query().Get("wait"); waitSpec != "" {
		d, err := time.ParseDuration(waitSpec)
		if err != nil || d < 0 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("service: bad wait duration %q", waitSpec)})
			return
		}
		// Bound the long poll so a dead client cannot pin a handler.
		if d > 5*time.Minute {
			d = 5 * time.Minute
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		st, err := s.WaitJob(ctx, id)
		if err != nil {
			writeJSON(w, statusFor(err), apiError{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, st)
		return
	}
	st, err := s.Job(id)
	if err != nil {
		writeJSON(w, statusFor(err), apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDrain(w http.ResponseWriter, _ *http.Request) {
	go s.Drain()
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(s.MetricsText()))
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}
