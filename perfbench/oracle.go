package main

// Sequential oracles for orca-32p. They rebuild each application's
// instance from its seed exactly as internal/apps does and compute the
// answer directly; the distributed runs must match it on every
// implementation, because the answer does not depend on the protocol.

import (
	"fmt"

	"amoebasim/internal/apps"
	"amoebasim/internal/sim"
)

// oracleAnswers computes the known answer of every application orca-32p
// runs for a seed, keyed by application name.
func oracleAnswers(seed uint64) (map[string]int64, error) {
	out := make(map[string]int64)
	for _, app := range orcaApps(seed) {
		switch a := app.(type) {
		case *apps.ASP:
			out[a.Name()] = aspOracle(a)
		case *apps.SOR:
			out[a.Name()] = sorOracle(a)
		default:
			return nil, fmt.Errorf("no oracle for %s", app.Name())
		}
	}
	return out, nil
}

// aspOracle is sequential Floyd-Warshall over a's instance; the answer is
// the sum of all finite distances.
func aspOracle(a *apps.ASP) int64 {
	const inf = int32(1) << 29
	n := a.N
	rng := sim.NewRand(a.Seed)
	dist := make([][]int32, n)
	for i := range dist {
		dist[i] = make([]int32, n)
		for j := range dist[i] {
			switch {
			case i == j:
			case rng.Intn(100) < 12:
				dist[i][j] = int32(rng.Intn(99) + 1)
			default:
				dist[i][j] = inf
			}
		}
	}
	for k := 0; k < n; k++ {
		rowk := dist[k]
		for i := 0; i < n; i++ {
			dik := dist[i][k]
			if dik >= inf {
				continue
			}
			ri := dist[i]
			for j, dkj := range rowk {
				if v := dik + dkj; v < ri[j] {
					ri[j] = v
				}
			}
		}
	}
	var sum int64
	for _, row := range dist {
		for _, d := range row {
			if d < inf {
				sum += int64(d)
			}
		}
	}
	return sum
}

// sorOracle is sequential red/black overrelaxation over a's grid. Within
// a colour phase every update reads only cells of the other colour, so
// the strip-partitioned run computes exactly these values.
func sorOracle(a *apps.SOR) int64 {
	rows, cols := a.Rows, a.Cols
	rng := sim.NewRand(a.Seed)
	grid := make([][]float64, rows)
	for i := range grid {
		grid[i] = make([]float64, cols)
	}
	for j := 0; j < cols; j++ {
		grid[0][j] = float64(rng.Intn(100))
		grid[rows-1][j] = float64(rng.Intn(100))
	}
	for i := 0; i < rows; i++ {
		grid[i][0] = float64(rng.Intn(100))
		grid[i][cols-1] = float64(rng.Intn(100))
	}
	for it := 0; it < a.Iters; it++ {
		for phase := 0; phase < 2; phase++ {
			for i := 1; i < rows-1; i++ {
				up, row, down := grid[i-1], grid[i], grid[i+1]
				for j := 1 + (i+phase)%2; j < cols-1; j += 2 {
					gs := (up[j] + down[j] + row[j-1] + row[j+1]) / 4
					row[j] = row[j] + a.Omega*(gs-row[j])
				}
			}
		}
	}
	var sum float64
	for _, row := range grid {
		for _, v := range row {
			sum += v
		}
	}
	return int64(sum * 1000)
}
