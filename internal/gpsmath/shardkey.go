package gpsmath

import "math"

// ShardOf maps a session's leaky-bucket class to one of n shards. The
// key is the ρ/φ ratio — the quantity the feasible-partition recursion
// (eqs. 37–39) orders sessions by — so sessions of one declared type
// (same arrival, same required rate) always land on the same shard and
// a shard's per-type bookkeeping (the type fold) keeps working at full
// strength. The ratio's bits are mixed through a splitmix64
// finalizer so adjacent service classes spread across shards instead
// of clustering in the low bits.
func ShardOf(rho, phi float64, n int) int {
	if n <= 1 {
		return 0
	}
	x := math.Float64bits(rho / phi)
	// splitmix64 finalizer (Steele et al.): full-avalanche mix of the
	// ratio bits.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}
