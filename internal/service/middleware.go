package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"comparesets/internal/faultinject"
	"comparesets/internal/obs"
	"comparesets/internal/servecache"
)

// API error codes used in the error envelope.
const (
	// CodeBadRequest marks malformed requests: unparseable JSON or a body
	// missing a required combination of fields (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodeNotFound marks references to unknown resources: categories or
	// target products not loaded on this server (HTTP 404).
	CodeNotFound = "not_found"
	// CodeUnprocessable marks well-formed requests with semantically
	// invalid values: unknown algorithms or methods, invalid
	// hyperparameters, inconsistent inline instances (HTTP 422).
	CodeUnprocessable = "unprocessable"
	// CodeDeadlineExceeded marks requests that ran out of their timeout_ms
	// budget (HTTP 504).
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeClientClosed marks requests whose client disconnected before the
	// response was ready (HTTP 499, the de-facto "client closed request"
	// status). Distinguishing it keeps client aborts out of the 5xx error
	// budget in metrics.
	CodeClientClosed = "client_closed"
	// CodeOverloaded marks requests shed by admission control; the
	// response carries a Retry-After header (HTTP 503).
	CodeOverloaded = "overloaded"
	// CodeInternal marks handler panics and injected/internal pipeline
	// failures (HTTP 500). The envelope message is generic; details go to
	// the server log only.
	CodeInternal = "internal"
)

// StatusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response. Used as a metrics status class, never actually
// received by anyone.
const StatusClientClosedRequest = 499

// ErrorBody is the machine-readable error payload. Field names the request
// field a validation error is about (empty for errors not tied to one
// field), so clients can surface the failure next to the offending input.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
}

// ErrorResponse is the envelope every non-2xx response carries:
// {"error":{"code":"...","message":"..."}}.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// apiError couples an HTTP status and a stable code with the underlying
// error; handlers return it and a single writer renders the envelope.
type apiError struct {
	status int
	code   string
	err    error
	// public, when set, replaces err.Error() in the envelope — used to keep
	// internal failure details (panic values, injected faults) out of
	// client responses.
	public string
	// retryAfter > 0 emits a Retry-After header with that many seconds.
	retryAfter int
	// field names the offending request field for validation errors.
	field string
}

func (e *apiError) Error() string { return e.err.Error() }
func (e *apiError) Unwrap() error { return e.err }

// message is what the envelope carries.
func (e *apiError) message() string {
	if e.public != "" {
		return e.public
	}
	return e.err.Error()
}

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: CodeBadRequest, err: fmt.Errorf(format, args...)}
}

func notFound(format string, args ...any) *apiError {
	return &apiError{status: http.StatusNotFound, code: CodeNotFound, err: fmt.Errorf(format, args...)}
}

func unprocessable(err error) *apiError {
	return &apiError{status: http.StatusUnprocessableEntity, code: CodeUnprocessable, err: err}
}

// fieldError is unprocessable tied to one named request field: the envelope
// carries {"error":{"code":"unprocessable","message":...,"field":...}}.
func fieldError(field, format string, args ...any) *apiError {
	return &apiError{
		status: http.StatusUnprocessableEntity, code: CodeUnprocessable,
		err: fmt.Errorf(format, args...), field: field,
	}
}

func internalError(err error) *apiError {
	return &apiError{
		status: http.StatusInternalServerError, code: CodeInternal,
		err: err, public: "internal server error",
	}
}

// asAPIError normalizes any handler error into an apiError: injected
// faults and flight panics map to 500/internal, deadline expiry to
// 504/deadline_exceeded, client disconnects to 499/client_closed, and
// everything else to 422 (the request parsed but could not be served as
// stated).
func asAPIError(err error) *apiError {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae
	}
	var pe *servecache.PanicError
	if errors.As(err, &pe) || errors.Is(err, faultinject.ErrInjected) {
		return internalError(err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &apiError{status: http.StatusGatewayTimeout, code: CodeDeadlineExceeded, err: err}
	}
	if errors.Is(err, context.Canceled) {
		return &apiError{status: StatusClientClosedRequest, code: CodeClientClosed, err: err}
	}
	return unprocessable(err)
}

// statusRecorder captures the status code written by a handler so the
// middleware can label the request counter with it, and whether a header
// was written at all so panic recovery knows if the envelope can still be
// sent.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.wrote = true
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// instrument wraps a handler with per-endpoint observability and panic
// containment: an in-flight gauge, a latency histogram (resolved once, at
// wrap time), a request counter labeled with endpoint and status code
// (resolved once per code), and a recover that converts a panicking handler
// into a 500 error envelope (stack to the log, comparesets_http_panics_total
// incremented) so one bad request can never take the process down.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	hist := s.reg.Histogram("comparesets_http_request_duration_seconds",
		"HTTP request latency by endpoint.", nil, obs.Labels{"endpoint": endpoint})
	inflight := s.reg.Gauge("comparesets_http_inflight_requests",
		"Requests currently being served.", nil)
	panics := s.reg.Counter("comparesets_http_panics_total",
		"Handler panics recovered by the middleware.", obs.Labels{"endpoint": endpoint})
	requests := obs.NewCounterSet(s.reg, "comparesets_http_requests_total",
		"HTTP requests by endpoint and status code.",
		func(code int) obs.Labels { return obs.Labels{"endpoint": endpoint, "code": strconv.Itoa(code)} })
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				panics.Inc()
				s.logger.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if !rec.wrote {
					s.writeAPIError(rec, internalError(fmt.Errorf("panic: %v", p)))
				}
			}
			inflight.Add(-1)
			hist.ObserveDuration(time.Since(start))
			requests.With(rec.status).Inc()
		}()
		if err := faultinject.Check(faultinject.PointServiceHandler); err != nil {
			s.writeAPIError(rec, asAPIError(err))
			return
		}
		h(rec, r)
	})
}
