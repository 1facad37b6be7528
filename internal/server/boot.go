package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/collection"
)

// Recovery of a large data directory (segment loading + WAL replay) can
// take a while, and an orchestrator probing a dead port cannot tell "still
// recovering" from "crashed". The boot protocol splits liveness from
// readiness: the process binds its port immediately and serves BootHandler
// — /healthz answers 200 (the process is alive), /readyz and every other
// route answer 503 recovering with a Retry-After (not ready) — then
// swaps in the real Server once segment.Open returns. /readyz therefore
// flips to 200 exactly when recovery and replay have completed.

// Swapper is an http.Handler whose target can be replaced atomically —
// boot handler first, real server once recovery finishes. Safe for
// concurrent use.
type Swapper struct {
	h atomic.Pointer[http.Handler]
}

// NewSwapper returns a Swapper serving BootHandler until Swap is called.
func NewSwapper() *Swapper {
	s := &Swapper{}
	boot := BootHandler()
	s.h.Store(&boot)
	return s
}

// Swap atomically replaces the serving handler; in-flight requests finish
// against the handler they started on.
func (s *Swapper) Swap(h http.Handler) { s.h.Store(&h) }

// ServeHTTP implements http.Handler.
func (s *Swapper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// BootHandler is what a server serves while recovery is still running:
// alive but not ready — every route but /healthz, /readyz included, is
// refused with 503 recovering.
func BootHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, &collection.Refusal{Code: collection.CodeRecovering, RetryAfter: time.Second})
	})
	return mux
}
