package serve

// Hooks is the chaos-test fault-injection seam, in the spirit of
// internal/runner/faultinject: the chaos suite scripts per-request
// panics, stalls and slow-backend delays keyed on Request.Tag and
// proves the daemon survives them without dropping unrelated in-flight
// requests. Every hook site sits inside a recovery scope (the handler
// recovery middleware or the worker's per-request quarantine), so an
// injected panic exercises exactly the production recovery path.
// Nothing outside tests installs hooks; a nil *Hooks or nil field is
// a no-op.
type Hooks struct {
	// InHandler fires in the HTTP handler goroutine after the request
	// is decoded and validated, before queueing or degradation checks.
	// A verdict-cache hit is answered before the body is decoded, so it
	// never fires there.
	InHandler func(tag string)
	// BeforeEvaluate fires in the worker goroutine after the job is
	// dequeued, before any partitioning work.
	BeforeEvaluate func(tag string)
	// DuringEvaluate fires in the worker between scheme evaluations
	// (before scheme index i), modeling a slow analysis backend. A set
	// the utilization screen rejects runs no scheme, so it never fires.
	DuringEvaluate func(tag string, i int)
}

func (h *Hooks) inHandler(tag string) {
	if h != nil && h.InHandler != nil {
		h.InHandler(tag)
	}
}

func (h *Hooks) beforeEvaluate(tag string) {
	if h != nil && h.BeforeEvaluate != nil {
		h.BeforeEvaluate(tag)
	}
}

func (h *Hooks) duringEvaluate(tag string, i int) {
	if h != nil && h.DuringEvaluate != nil {
		h.DuringEvaluate(tag, i)
	}
}
