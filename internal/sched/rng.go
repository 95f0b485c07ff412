package sched

// RNG is a small, fast, deterministic pseudo-random generator (splitmix64)
// used for victim selection. Every scheduling entity owns one, seeded from
// (runSeed, entityID), so simulator runs are bit-reproducible and the real
// runtime needs no locked global randomness.
type RNG struct {
	state uint64
}

// NewRNG seeds an RNG from a run seed and an entity ID.
func NewRNG(seed uint64, entity int) *RNG {
	r := &RNG{state: seed ^ (uint64(entity)+1)*0x9E3779B97F4A7C15}
	// Warm up so nearby seeds decorrelate.
	r.Next()
	r.Next()
	return r
}

// Next returns the next 64 random bits.
func (r *RNG) Next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sched: Intn with non-positive n")
	}
	return int(r.Next() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}

// Victim draws a victim uniformly from the n entities other than self:
// the victim choice of conventional random work stealing.
func (r *RNG) Victim(self, n int) int {
	v := r.Intn(n - 1)
	if v >= self {
		v++
	}
	return v
}
