// Package queueing implements the single-server queue formulas the
// analytical model relies on: the Pollaczek–Khinchine mean waiting time for
// M/G/1 queues and its M/M/1 specialization.
//
// The paper models the channel at a source node as an M/G/1 queue (Eq. 19)
//
//	W = λ·x̄²·(1 + C_x²) / (2·(1 − ρ)),  ρ = λ·x̄,  C_x² = σ_x²/x̄²
//
// and the concentrator/dispatcher buffers as M/G/1 queues with deterministic
// service (Eq. 33), which is exactly M/D/1: MG1Wait with zero variance.
package queueing

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnstable reports a queue whose utilization is at or beyond 1, i.e. the
// arrival rate meets or exceeds the service capacity and the mean waiting
// time is unbounded.
var ErrUnstable = errors.New("queueing: utilization >= 1 (saturated)")

// Utilization returns ρ = λ·x̄ for arrival rate λ and mean service time x̄.
func Utilization(lambda, meanService float64) float64 {
	return lambda * meanService
}

// MG1Wait returns the mean waiting time in queue (excluding service) of an
// M/G/1 queue with arrival rate lambda, mean service time mean and service
// time variance variance, by the Pollaczek–Khinchine formula. It returns
// ErrUnstable if ρ ≥ 1.
func MG1Wait(lambda, mean, variance float64) (float64, error) {
	if lambda < 0 || mean < 0 || variance < 0 {
		return 0, fmt.Errorf("queueing: negative argument (λ=%v, x̄=%v, σ²=%v)", lambda, mean, variance)
	}
	if lambda == 0 || mean == 0 {
		return 0, nil
	}
	rho := Utilization(lambda, mean)
	if rho >= 1 {
		return math.Inf(1), ErrUnstable
	}
	// E[x²] = x̄² + σ² ; W = λ E[x²] / (2(1-ρ)).
	ex2 := mean*mean + variance
	return lambda * ex2 / (2 * (1 - rho)), nil
}

// MM1Wait returns the mean waiting time of an M/M/1 queue (exponential
// service with mean 1/mu).
func MM1Wait(lambda, mu float64) (float64, error) {
	if mu <= 0 {
		return 0, fmt.Errorf("queueing: non-positive service rate %v", mu)
	}
	mean := 1 / mu
	return MG1Wait(lambda, mean, mean*mean)
}
