package taskgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// eventsByTime is the reference stream order, the sort.Interface the
// builder once sorted the whole stream with: (Time, departures first,
// Task).
type eventsByTime []Event

func (e *eventsByTime) Len() int { return len(*e) }

func (e *eventsByTime) Swap(i, j int) { (*e)[i], (*e)[j] = (*e)[j], (*e)[i] }

func (e *eventsByTime) Less(i, j int) bool {
	a, b := &(*e)[i], &(*e)[j]
	if a.Time < b.Time {
		return true
	}
	if b.Time < a.Time {
		return false
	}
	if a.Arrive != b.Arrive {
		return !a.Arrive // departures first
	}
	return a.Task < b.Task
}

// sortedStream is the reference builder: the same draws as Build, each
// arrival followed by its departure, then one total-order sort of the
// whole stream.
func sortedStream(p Poisson, n int, horizon float64, baseSeed int64, idx int) []Event {
	rng := rand.New(newSplitmix(mix(baseSeed, int64(idx)) ^ arrivalSalt))
	var ev eventsByTime
	t := 0.0
	for i := 0; i < n; i++ {
		gap, life := p.Next(rng)
		t += gap
		if t >= horizon {
			break
		}
		ev = append(ev, Event{Time: t, Task: i, Arrive: true})
		if dep := t + life; dep < horizon {
			ev = append(ev, Event{Time: dep, Task: i, Arrive: false})
		}
	}
	sort.Sort(&ev)
	return ev
}

// TestPoissonValidate pins the configuration errors of the arrival
// process: both parameters must be finite and positive.
func TestPoissonValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		p    Poisson
		want string // "" means valid
	}{
		{"poisson ok", Poisson{Rate: 0.1, MeanLifetime: 100}, ""},
		{"poisson zero rate", Poisson{Rate: 0, MeanLifetime: 100}, "taskgen: poisson: rate 0 <= 0"},
		{"poisson bad lifetime", Poisson{Rate: 0.1, MeanLifetime: -2}, "taskgen: poisson: mean lifetime -2 <= 0"},
		{"poisson nan rate", Poisson{Rate: nan, MeanLifetime: 100}, "taskgen: poisson: rate NaN is not finite"},
		{"poisson inf rate", Poisson{Rate: inf, MeanLifetime: 100}, "taskgen: poisson: rate +Inf is not finite"},
		{"poisson -inf rate", Poisson{Rate: -inf, MeanLifetime: 100}, "taskgen: poisson: rate -Inf is not finite"},
		{"poisson nan lifetime", Poisson{Rate: 0.1, MeanLifetime: nan}, "taskgen: poisson: mean lifetime NaN is not finite"},
		{"poisson inf lifetime", Poisson{Rate: 0.1, MeanLifetime: inf}, "taskgen: poisson: mean lifetime +Inf is not finite"},
		{"poisson -inf lifetime", Poisson{Rate: 0.1, MeanLifetime: -inf}, "taskgen: poisson: mean lifetime -Inf is not finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error:\n got: %v\nwant: %s", err, tc.want)
			}
		})
	}
}

// TestStreamDeterministic checks the addressing contract: (process, n,
// horizon, baseSeed, idx) names one event stream bit for bit, across
// builder instances and interleaved call orders, and distinct indices
// produce distinct streams.
func TestStreamDeterministic(t *testing.T) {
	p := Poisson{Rate: 0.05, MeanLifetime: 400}
	a, b := NewStreamBuilder(), NewStreamBuilder()
	a.Build(p, 64, 2000, 2016, 9) // perturb a's slab state

	for _, idx := range []int{0, 1, 17} {
		got := append([]Event(nil), a.Build(p, 64, 2000, 2016, idx)...)
		want := b.Build(p, 64, 2000, 2016, idx)
		if len(got) != len(want) {
			t.Fatalf("idx %d: %d vs %d events", idx, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("idx %d event %d: %+v vs %+v", idx, i, got[i], want[i])
			}
		}
	}

	s0 := append([]Event(nil), a.Build(p, 64, 2000, 2016, 0)...)
	s1 := a.Build(p, 64, 2000, 2016, 1)
	if len(s0) == len(s1) {
		same := true
		for i := range s0 {
			if s0[i] != s1[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("indices 0 and 1 produced identical streams")
		}
	}
}

// TestStreamInvariants checks the stream's structural contract: sorted
// by the documented order, every timestamp inside [0, horizon), each
// task arriving at most once, and departures only for tasks that
// arrived, strictly after their arrival.
func TestStreamInvariants(t *testing.T) {
	sb := NewStreamBuilder()
	byTime := eventsByTime(nil)
	for idx := 0; idx < 10; idx++ {
		ev := sb.Build(Poisson{Rate: 0.1, MeanLifetime: 50}, 100, 500, 7, idx)
		byTime = ev
		for i := 1; i < len(ev); i++ {
			if byTimeLess := (&byTime).Less(i, i-1); byTimeLess {
				t.Fatalf("idx %d: events %d,%d out of order: %+v then %+v", idx, i-1, i, ev[i-1], ev[i])
			}
		}
		arrived := map[int]float64{}
		departed := map[int]bool{}
		for _, e := range ev {
			if e.Time < 0 || e.Time >= 500 {
				t.Fatalf("idx %d: event time %v outside [0, horizon)", idx, e.Time)
			}
			if e.Arrive {
				if _, dup := arrived[e.Task]; dup {
					t.Fatalf("idx %d: task %d arrived twice", idx, e.Task)
				}
				arrived[e.Task] = e.Time
			} else {
				at, ok := arrived[e.Task]
				if !ok {
					t.Fatalf("idx %d: task %d departed before arriving", idx, e.Task)
				}
				if departed[e.Task] {
					t.Fatalf("idx %d: task %d departed twice", idx, e.Task)
				}
				if e.Time <= at {
					t.Fatalf("idx %d: task %d departed at %v, arrived at %v", idx, e.Task, e.Time, at)
				}
				departed[e.Task] = true
			}
		}
	}
}

// TestStreamTieBreak checks the documented equal-timestamp order
// directly on Build's merge: departures first, then ascending task
// index — a departure and an arrival at one instant, and two
// departures at one instant, handed to it out of order.
func TestStreamTieBreak(t *testing.T) {
	arrivals := make([]Event, 0, 7)
	arrivals = append(arrivals,
		Event{Time: 1, Task: 0, Arrive: true},
		Event{Time: 5, Task: 2, Arrive: true},
		Event{Time: 5, Task: 4, Arrive: true},
	)
	deps := []Event{
		{Time: 7, Task: 0, Arrive: false},
		{Time: 5, Task: 3, Arrive: false},
		{Time: 9, Task: 4, Arrive: false},
		{Time: 5, Task: 1, Arrive: false},
	}
	want := []Event{
		{Time: 1, Task: 0, Arrive: true},
		{Time: 5, Task: 1, Arrive: false},
		{Time: 5, Task: 3, Arrive: false},
		{Time: 5, Task: 2, Arrive: true},
		{Time: 5, Task: 4, Arrive: true},
		{Time: 7, Task: 0, Arrive: false},
		{Time: 9, Task: 4, Arrive: false},
	}
	got := mergeDepartures(arrivals, deps)
	if len(got) != len(want) {
		t.Fatalf("merged %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie-break order: got %+v at %d, want %+v", got[i], i, want[i])
		}
	}
}

// TestStreamMatchesTotalOrderSort is the differential check of the
// departures-only sort: over 1,000 (seed, idx) pairs, Build's stream
// equals the reference builder's one sort of the same draws.
func TestStreamMatchesTotalOrderSort(t *testing.T) {
	sb := NewStreamBuilder()
	procs := []Poisson{
		{Rate: 0.08, MeanLifetime: 1000}, // onl1: many departures past the horizon
		{Rate: 0.5, MeanLifetime: 20},    // short lives: departures interleave
	}
	for seed := int64(0); seed < 100; seed++ {
		for idx := 0; idx < 10; idx++ {
			p := procs[int(seed)%len(procs)]
			got := sb.Build(p, 64, 4000, seed, idx)
			want := sortedStream(p, 64, 4000, seed, idx)
			if len(got) != len(want) {
				t.Fatalf("seed %d idx %d: %d events, reference %d", seed, idx, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d idx %d event %d: %+v, reference %+v", seed, idx, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamZeroAllocs proves the builder's slab contract: steady-state
// stream construction performs no heap allocations.
func TestStreamZeroAllocs(t *testing.T) {
	sb := NewStreamBuilder()
	p := Poisson{Rate: 0.05, MeanLifetime: 400}
	for idx := 0; idx < 8; idx++ {
		sb.Build(p, 64, 2000, 3, idx)
	}
	avg := testing.AllocsPerRun(100, func() {
		sb.Build(p, 64, 2000, 3, 4)
	})
	if avg != 0 {
		t.Fatalf("StreamBuilder.Build allocates %v per run, want 0", avg)
	}
}

// TestStreamBadInputs checks that invalid processes and horizons are
// rejected by panic, with the exact message, before any draw.
func TestStreamBadInputs(t *testing.T) {
	sb := NewStreamBuilder()
	ok := Poisson{Rate: 1, MeanLifetime: 1}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name    string
		p       Poisson
		horizon float64
		want    string
	}{
		{"invalid process", Poisson{}, 100, "taskgen: poisson: rate 0 <= 0"},
		{"nan rate", Poisson{Rate: nan, MeanLifetime: 1}, 100, "taskgen: poisson: rate NaN is not finite"},
		{"inf rate", Poisson{Rate: inf, MeanLifetime: 1}, 100, "taskgen: poisson: rate +Inf is not finite"},
		{"nan lifetime", Poisson{Rate: 1, MeanLifetime: nan}, 100, "taskgen: poisson: mean lifetime NaN is not finite"},
		{"zero horizon", ok, 0, "taskgen: stream: horizon 0 <= 0"},
		{"nan horizon", ok, nan, "taskgen: stream: horizon NaN is not finite"},
		{"inf horizon", ok, inf, "taskgen: stream: horizon +Inf is not finite"},
		{"-inf horizon", ok, -inf, "taskgen: stream: horizon -Inf is not finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if got := fmt.Sprint(recover()); got != tc.want {
					t.Fatalf("panic:\n got: %s\nwant: %s", got, tc.want)
				}
			}()
			sb.Build(tc.p, 10, tc.horizon, 1, 0)
		})
	}
}
