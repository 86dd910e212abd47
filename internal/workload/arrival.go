package workload

import (
	"fmt"

	"mcnet/internal/freelist"
	"mcnet/internal/rng"
)

// Arrival describes an arrival process family. NewProcess instantiates the
// per-node state for a node with the given mean message rate; every process
// of a family preserves that mean rate, so latency curves stay comparable
// across processes at equal offered load.
type Arrival interface {
	// Name is the canonical spec string ("poisson", "mmpp:8:16", …); equal
	// names describe identical processes.
	Name() string
	// NewProcess returns a fresh process generating at mean rate `rate`
	// (messages per time unit). It panics if rate <= 0.
	NewProcess(rate float64) Process
}

// Process is one node's arrival stream. Next draws the time to the node's
// next message, consuming randomness only from r, so runs are reproducible
// per (seed, node) stream.
type Process interface {
	Next(r *rng.Source) float64
}

// Poisson is the paper's assumption 1: exponential inter-arrival times.
type Poisson struct{}

// Name implements Arrival.
func (Poisson) Name() string { return "poisson" }

// NewProcess implements Arrival.
func (Poisson) NewProcess(rate float64) Process {
	if rate <= 0 {
		panic(fmt.Sprintf("workload: poisson rate %v must be positive", rate))
	}
	return poissonProcess{rate: rate}
}

type poissonProcess struct{ rate float64 }

func (p poissonProcess) Next(r *rng.Source) float64 { return r.Exp(p.rate) }

// Deterministic injects strictly periodically at the mean rate: the least
// variable process with a given mean, the lower anchor of the burstiness
// axis (squared coefficient of variation 0, vs 1 for Poisson). Each node's
// first arrival gets a uniform random phase in [0, period) — the stationary
// version of the periodic process — so independent nodes do not all inject
// at the same instants, which would be a synchronization artifact rather
// than a workload property.
type Deterministic struct{}

// Name implements Arrival.
func (Deterministic) Name() string { return "deterministic" }

// NewProcess implements Arrival.
func (d Deterministic) NewProcess(rate float64) Process {
	p := d.process(rate)
	return &p
}

// process derives the per-node state for one rate (shared by NewProcess and
// the arena-backed NewProcesses).
func (Deterministic) process(rate float64) deterministicProcess {
	if rate <= 0 {
		panic(fmt.Sprintf("workload: deterministic rate %v must be positive", rate))
	}
	return deterministicProcess{interval: 1 / rate}
}

type deterministicProcess struct {
	interval float64
	started  bool
}

func (p *deterministicProcess) Next(r *rng.Source) float64 {
	if !p.started {
		p.started = true
		return r.Float64() * p.interval
	}
	return p.interval
}

// MMPP is a two-state on-off Markov-modulated Poisson process, the standard
// burst model: exponentially distributed on-periods inject Poisson traffic at
// Peak times the mean rate, exponentially distributed off-periods inject
// nothing, and the duty cycle 1/Peak keeps the long-run mean rate equal to
// the configured rate. Burst sets the mean number of messages per on-period,
// i.e. how long bursts last relative to the injection rate.
type MMPP struct {
	// Peak is the on-state rate as a multiple of the mean rate (> 1).
	Peak float64
	// Burst is the mean number of messages emitted per on-period (>= 1; a
	// smaller value would make Next spin through state flips that emit
	// almost nothing).
	Burst float64
}

// Name implements Arrival.
func (m MMPP) Name() string { return "mmpp:" + formatG(m.Peak) + ":" + formatG(m.Burst) }

// NewProcess implements Arrival.
func (m MMPP) NewProcess(rate float64) Process {
	p := m.process(rate)
	return &p
}

// process derives the per-node modulation state for one rate (shared by
// NewProcess and the arena-backed NewProcesses).
func (m MMPP) process(rate float64) mmppProcess {
	if rate <= 0 {
		panic(fmt.Sprintf("workload: mmpp rate %v must be positive", rate))
	}
	if m.Peak <= 1 || m.Burst < 1 {
		panic(fmt.Sprintf("workload: mmpp peak %v must be > 1 and burst %v >= 1", m.Peak, m.Burst))
	}
	lambdaOn := rate * m.Peak
	tOn := m.Burst / lambdaOn
	duty := 1 / m.Peak
	return mmppProcess{
		lambdaOn: lambdaOn,
		onRate:   1 / tOn,
		offRate:  duty / (tOn * (1 - duty)), // 1 / tOff
		duty:     duty,
	}
}

// mmppProcess holds one node's modulation state: the current phase and the
// time left in it. The initial phase is drawn from the stationary
// distribution on the first call (lazily, so construction consumes no
// randomness), making the process statistically stationary from t=0 rather
// than synchronizing every node into an on-period at startup.
type mmppProcess struct {
	lambdaOn float64
	onRate   float64 // sojourn-time rate of the on state
	offRate  float64 // sojourn-time rate of the off state
	duty     float64 // stationary probability of the on state
	started  bool
	on       bool
	left     float64 // time remaining in the current state
}

func (p *mmppProcess) Next(r *rng.Source) float64 {
	if !p.started {
		p.started = true
		p.on = r.Float64() < p.duty
		if p.on {
			p.left = r.Exp(p.onRate)
		} else {
			p.left = r.Exp(p.offRate)
		}
	}
	elapsed := 0.0
	for {
		if p.on {
			a := r.Exp(p.lambdaOn)
			if a <= p.left {
				p.left -= a
				return elapsed + a
			}
		}
		// No arrival within this state's remainder: advance to the next state.
		elapsed += p.left
		p.on = !p.on
		if p.on {
			p.left = r.Exp(p.onRate)
		} else {
			p.left = r.Exp(p.offRate)
		}
	}
}

// NewProcesses returns the processes of a new Fleet, for a caller that
// never releases them.
func NewProcesses(a Arrival, rates []float64) []Process {
	return NewFleet(a, rates).Procs
}

// Fleet is one process per node: Procs[i] draws node i's inter-arrival
// times. The per-node state of the known stateful families (MMPP,
// Deterministic) lives in a single arena instead of one heap object per
// node, and boxing &arena[i] into the interface does not allocate, so a
// whole fleet of bursty nodes costs O(1) allocations; Release hands the
// arena and Procs to the next NewFleet, so a fleet built after a released
// one costs none. Unknown families fall back to per-node NewProcess.
type Fleet struct {
	Procs []Process
	mmpp  []mmppProcess
	det   []deterministicProcess
}

// The free lists Fleet.Release hands a fleet's arrays to and NewFleet draws
// from (see package freelist).
var (
	procSlices freelist.List[Process]
	mmppArenas freelist.List[mmppProcess]
	detArenas  freelist.List[deterministicProcess]
)

// NewFleet instantiates one independent process per rate.
func NewFleet(a Arrival, rates []float64) Fleet {
	f := Fleet{Procs: procSlices.Get(len(rates))}
	switch a := a.(type) {
	case MMPP:
		f.mmpp = mmppArenas.Get(len(rates))
		for i, rate := range rates {
			f.mmpp[i] = a.process(rate)
			f.Procs[i] = &f.mmpp[i]
		}
	case Deterministic:
		f.det = detArenas.Get(len(rates))
		for i, rate := range rates {
			f.det[i] = a.process(rate)
			f.Procs[i] = &f.det[i]
		}
	default:
		for i, rate := range rates {
			f.Procs[i] = a.NewProcess(rate)
		}
	}
	return f
}

// Release hands the fleet's arrays to the next NewFleet and clears the
// fleet; its processes must not be used afterwards. The arenas are
// pointer-free, and Procs is cleared first, so nothing kept points back
// into the run.
func (f *Fleet) Release() {
	clear(f.Procs)
	procSlices.Put(f.Procs)
	mmppArenas.Put(f.mmpp)
	detArenas.Put(f.det)
	*f = Fleet{}
}

// ParseArrival resolves an arrival spec string. Recognized forms:
//
//	poisson                 exponential inter-arrivals (the paper's model)
//	deterministic           periodic injection at the mean rate
//	mmpp:<peak>:<burst>     on-off MMPP: on-periods at peak× the mean rate
//	                        emitting ~burst messages each, silent off-periods
func ParseArrival(spec string) (Arrival, error) {
	name, args := parseFields(spec)
	switch name {
	case "poisson", "":
		if len(args) > 0 {
			return nil, fmt.Errorf("workload: arrival %q takes no arguments", spec)
		}
		return Poisson{}, nil
	case "deterministic":
		if len(args) > 0 {
			return nil, fmt.Errorf("workload: arrival %q takes no arguments", spec)
		}
		return Deterministic{}, nil
	case "mmpp":
		if len(args) != 2 {
			return nil, fmt.Errorf("workload: arrival %q needs mmpp:<peak>:<burst>", spec)
		}
		peak, err := parseFrac(spec, args[0], 1, 1e6)
		if err != nil || peak <= 1 {
			return nil, fmt.Errorf("workload: arrival %q: peak must be a number > 1", spec)
		}
		burst, err := parseFrac(spec, args[1], 1, 1e9)
		if err != nil {
			return nil, fmt.Errorf("workload: arrival %q: burst must be a number >= 1", spec)
		}
		return MMPP{Peak: peak, Burst: burst}, nil
	}
	return nil, fmt.Errorf("workload: unknown arrival process %q (poisson, deterministic, mmpp:<peak>:<burst>)", spec)
}
