package queueing

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mcnet/internal/des"
	"mcnet/internal/rng"
	"mcnet/internal/stats"
)

func TestMM1AgainstClosedForm(t *testing.T) {
	// M/M/1: W = ρ/(μ−λ).
	cases := []struct{ lambda, mu float64 }{
		{0.1, 1}, {0.5, 1}, {0.9, 1}, {3, 10}, {0.99, 1},
	}
	for _, c := range cases {
		got, err := MM1Wait(c.lambda, c.mu)
		if err != nil {
			t.Fatalf("MM1Wait(%v,%v): %v", c.lambda, c.mu, err)
		}
		rho := c.lambda / c.mu
		want := rho / (c.mu - c.lambda)
		if math.Abs(got-want) > 1e-12*math.Max(1, want) {
			t.Errorf("MM1Wait(%v,%v) = %v, want %v", c.lambda, c.mu, got, want)
		}
	}
}

func TestMD1IsHalfOfMM1(t *testing.T) {
	// Classic identity: deterministic service halves the waiting time of
	// exponential service at equal mean.
	f := func(lRaw, dRaw uint16) bool {
		d := float64(dRaw%100+1) / 100
		lambda := float64(lRaw%99+1) / 100 / d * 0.99 // keep ρ < 0.99
		md1, err1 := MG1Wait(lambda, d, 0)
		mm1, err2 := MM1Wait(lambda, 1/d)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(md1-mm1/2) < 1e-9*math.Max(1, mm1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSaturationDetection(t *testing.T) {
	if _, err := MM1Wait(1, 1); !errors.Is(err, ErrUnstable) {
		t.Errorf("ρ=1: err = %v, want ErrUnstable", err)
	}
	if _, err := MG1Wait(2, 1, 0); !errors.Is(err, ErrUnstable) {
		t.Errorf("ρ=2: err = %v, want ErrUnstable", err)
	}
	w, err := MG1Wait(3, 1, 0.5)
	if !errors.Is(err, ErrUnstable) || !math.IsInf(w, 1) {
		t.Errorf("saturated MG1: (%v, %v), want (+Inf, ErrUnstable)", w, err)
	}
}

func TestZeroLoad(t *testing.T) {
	w, err := MG1Wait(0, 5, 3)
	if err != nil || w != 0 {
		t.Errorf("zero arrivals: (%v, %v), want (0, nil)", w, err)
	}
}

func TestNegativeArgumentsRejected(t *testing.T) {
	if _, err := MG1Wait(-1, 1, 0); err == nil {
		t.Error("negative λ accepted")
	}
	if _, err := MG1Wait(1, -1, 0); err == nil {
		t.Error("negative mean accepted")
	}
	if _, err := MG1Wait(1, 1, -1); err == nil {
		t.Error("negative variance accepted")
	}
	if _, err := MM1Wait(1, 0); err == nil {
		t.Error("zero μ accepted")
	}
}

func TestWaitMonotoneInLoad(t *testing.T) {
	prev := -1.0
	for _, lambda := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		w, err := MG1Wait(lambda, 1, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if w <= prev {
			t.Errorf("W(λ=%v) = %v not monotone increasing", lambda, w)
		}
		prev = w
	}
}

// Ops of mg1.
const (
	mg1Arrive int32 = iota
	mg1Depart
)

// mg1 is a FIFO single-server queue as a des Handler: op mg1Arrive is a
// job's arrival, op mg1Depart the end of a service.
type mg1 struct {
	sched   des.Scheduler
	h       des.HandlerID
	src     *rng.Source
	lambda  float64
	service func(*rng.Source) float64
	queue   []float64 // arrival times of the waiting jobs
	busy    bool
	left    int // arrivals still to come
	wait    stats.Running
}

func (q *mg1) start(arrival float64) {
	q.busy = true
	q.wait.Add(q.sched.Now() - arrival)
	q.sched.CallAfter(q.service(q.src), q.h, mg1Depart, 0)
}

func (q *mg1) HandleEvent(op, arg int32) {
	if op == mg1Depart {
		q.busy = false
		if len(q.queue) > 0 {
			arrival := q.queue[0]
			q.queue = q.queue[1:]
			q.start(arrival)
		}
		return
	}
	if q.busy {
		q.queue = append(q.queue, q.sched.Now())
	} else {
		q.start(q.sched.Now())
	}
	if q.left--; q.left > 0 {
		q.sched.CallAfter(q.src.Exp(q.lambda), q.h, mg1Arrive, 0)
	}
}

// simulateMG1 runs a small event-driven M/G/1 queue and returns the observed
// mean waiting time. It doubles as an integration test of the des package.
func simulateMG1(lambda float64, service func(*rng.Source) float64, n int, seed uint64) float64 {
	q := &mg1{src: rng.New(seed), lambda: lambda, service: service, left: n}
	q.h = q.sched.Register(q)
	q.sched.CallAfter(q.src.Exp(lambda), q.h, mg1Arrive, 0)
	q.sched.RunAll(0)
	return q.wait.Mean()
}

func TestMG1FormulaAgainstSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation cross-check skipped in -short mode")
	}
	const n = 400000
	cases := []struct {
		name     string
		lambda   float64
		mean     float64
		variance float64
		service  func(*rng.Source) float64
	}{
		{"MD1 rho=0.5", 0.5, 1, 0, func(*rng.Source) float64 { return 1 }},
		{"MM1 rho=0.7", 0.7, 1, 1, func(s *rng.Source) float64 { return s.Exp(1) }},
		{"uniform service rho=0.6", 0.6, 1, 1.0 / 12, func(s *rng.Source) float64 { return 0.5 + s.Float64() }},
	}
	for _, c := range cases {
		want, err := MG1Wait(c.lambda, c.mean, c.variance)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := simulateMG1(c.lambda, c.service, n, 12345)
		if math.Abs(got-want) > 0.05*want+0.01 {
			t.Errorf("%s: simulated W = %v, PK formula = %v", c.name, got, want)
		}
	}
}
