package taskgen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Event is one entry of an online scenario's merged event stream: task
// Task (an index into the replication's task universe) arrives or
// departs at scenario time Time.
type Event struct {
	// Time is the event timestamp in scenario time units (the same
	// units as task periods).
	Time float64
	// Task indexes the replication's task universe.
	Task int
	// Arrive is true for an arrival, false for a departure.
	Arrive bool
}

// Poisson is the online workload's arrival process: exponential
// inter-arrival gaps with the given rate and exponential lifetimes with
// the given mean, the M/M/∞-style open-loop workload of queueing
// models. By Little's law the standing occupancy targets
// Rate * MeanLifetime tasks (capped by the universe size).
type Poisson struct {
	// Rate is the arrival intensity (arrivals per time unit).
	Rate float64
	// MeanLifetime is the expected time an admitted task stays.
	MeanLifetime float64
}

// Next draws the inter-arrival gap to the next arrival and its
// lifetime, in that order.
//
//mc:allocfree two exponential draws
func (p Poisson) Next(rng *rand.Rand) (gap, lifetime float64) {
	return rng.ExpFloat64() / p.Rate, rng.ExpFloat64() * p.MeanLifetime
}

// Validate reports a configuration error, if any: both parameters must
// be finite and positive.
func (p Poisson) Validate() error {
	switch {
	case !isFinite(p.Rate):
		return fmt.Errorf("taskgen: poisson: rate %v is not finite", p.Rate)
	case p.Rate <= 0:
		return fmt.Errorf("taskgen: poisson: rate %v <= 0", p.Rate)
	case !isFinite(p.MeanLifetime):
		return fmt.Errorf("taskgen: poisson: mean lifetime %v is not finite", p.MeanLifetime)
	case p.MeanLifetime <= 0:
		return fmt.Errorf("taskgen: poisson: mean lifetime %v <= 0", p.MeanLifetime)
	}
	return nil
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// arrivalSalt decorrelates the event-stream draw sequence from the
// task-universe generation: both are addressed by (baseSeed, idx), and
// without the salt the stream would replay the universe's draws.
const arrivalSalt = 0x6A09E667F3BCC909

// StreamBuilder amortizes event-stream construction: it owns a seeded
// source and reusable event slabs, so building the stream of one
// replication performs no heap allocations in the steady state. Like
// Generator, a StreamBuilder must not be shared between goroutines,
// and the returned slice aliases internal storage valid until the next
// Build call.
type StreamBuilder struct {
	src    *splitmix
	rng    *rand.Rand
	events []Event
	deps   []Event // departure scratch, merged into events
}

// NewStreamBuilder returns an empty builder; the seed is installed per
// Build call.
func NewStreamBuilder() *StreamBuilder {
	src := newSplitmix(1)
	return &StreamBuilder{src: src, rng: rand.New(src)}
}

// Build produces the merged arrival/departure event stream of the
// idx-th replication rooted at baseSeed: task i of the universe is the
// i-th arrival (gaps and lifetimes drawn from p), arrivals past the
// horizon are dropped along with the rest of the universe, and a
// departure past the horizon is simply never emitted (the task stays
// admitted to the end). The stream is sorted by time with a
// deterministic tie-break — departures before arrivals, then by task
// index — so replaying it is reproducible across worker counts, runs
// and machines; (p, n, horizon, baseSeed, idx) addresses one stream
// bit for bit.
//
//mc:deterministic the event stream is replayed into checkpointed aggregates and golden CSVs
func (b *StreamBuilder) Build(p Poisson, n int, horizon float64, baseSeed int64, idx int) []Event {
	if err := p.Validate(); err != nil {
		//lint:ignore mclint/panicmsg Validate errors already carry the "taskgen: " prefix
		panic(err)
	}
	if !isFinite(horizon) {
		panic(fmt.Sprintf("taskgen: stream: horizon %v is not finite", horizon))
	}
	if horizon <= 0 {
		panic(fmt.Sprintf("taskgen: stream: horizon %v <= 0", horizon))
	}
	b.src.Seed(mix(baseSeed, int64(idx)) ^ arrivalSalt)
	if cap(b.events) < 2*n {
		b.events = make([]Event, 0, 2*n)
	}
	if cap(b.deps) < n {
		b.deps = make([]Event, 0, n)
	}
	b.events, b.deps = b.events[:0], b.deps[:0]
	t := 0.0
	for i := 0; i < n; i++ {
		gap, life := p.Next(b.rng)
		t += gap
		if t >= horizon {
			break
		}
		b.events = append(b.events, Event{Time: t, Task: i, Arrive: true})
		if dep := t + life; dep < horizon {
			b.deps = append(b.deps, Event{Time: dep, Task: i, Arrive: false})
		}
	}
	b.events = mergeDepartures(b.events, b.deps)
	return b.events
}

// mergeDepartures returns the stream of arrivals and deps in the order
// (Time, departures first, Task): at equal timestamps a departure frees
// capacity before the arrival is screened, and the task index breaks
// the remaining ties, so the order is total and deterministic.
// Arrivals must already be in that order, which the draw loop yields
// (times never decrease and task indices increase), and have room for
// deps past their length; the merge fills that room back to front, so
// it needs no scratch. Only the departures are sorted.
//
//mc:allocfree sorts deps in place and merges within arrivals' capacity
func mergeDepartures(arrivals, deps []Event) []Event {
	slices.SortFunc(deps, departureOrder)
	out := arrivals[:len(arrivals)+len(deps)]
	i, j := len(arrivals)-1, len(deps)-1
	for k := len(out) - 1; j >= 0; k-- {
		// An arrival goes after a departure unless it is strictly earlier.
		if i >= 0 && out[i].Time >= deps[j].Time {
			out[k] = out[i]
			i--
		} else {
			out[k] = deps[j]
			j--
		}
	}
	return out
}

// departureOrder orders departures by (Time, Task).
//
//mc:allocfree two scalar compares
func departureOrder(a, b Event) int {
	switch {
	case a.Time < b.Time:
		return -1
	case b.Time < a.Time:
		return 1
	}
	return a.Task - b.Task
}
