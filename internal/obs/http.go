package obs

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// RequestSecondsBuckets are the latency buckets of the HTTP middleware
// histogram: sub-millisecond cache hits through multi-second
// simulations submitted synchronously.
var RequestSecondsBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// statusWriter captures the response status code and byte count.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush forwards to the underlying writer when it supports streaming.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Middleware wraps next with access logging and per-request metrics:
// every request gets a process-unique request_id (also echoed in the
// X-Request-Id response header), a structured access-log line with
// method/route/status/latency, and increments on
// lnuca_http_requests_total{method,route,code} plus an observation on
// lnuca_http_request_seconds{method,route}.
//
// route maps a request onto a bounded label value (e.g. collapsing
// /v1/jobs/<id> to /v1/jobs/{id}) so job IDs never explode the metric
// cardinality; nil uses the raw URL path.
func Middleware(next http.Handler, log *slog.Logger, reg *Registry, route func(*http.Request) string) http.Handler {
	if log == nil {
		log = Discard()
	}
	var requests *CounterVec
	var seconds *HistogramVec
	if reg != nil {
		requests = reg.CounterVec("lnuca_http_requests_total",
			"HTTP requests served, by method, normalized route and status code.",
			"method", "route", "code")
		seconds = reg.HistogramVec("lnuca_http_request_seconds",
			"HTTP request latency in seconds, by method and normalized route.",
			RequestSecondsBuckets, "method", "route")
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := nextRequestID()
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		label := r.URL.Path
		if route != nil {
			label = route(r)
		}
		requests.With(r.Method, label, strconv.Itoa(sw.status)).Inc()
		seconds.With(r.Method, label).Observe(elapsed.Seconds())
		log.Info("http request",
			"request_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"route", label,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration_ms", float64(elapsed.Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
	})
}
