package netsim

// PRNG is an 8-byte xorshift64 generator. Sessions cannot afford a
// math/rand.Rand (its source alone is ~5 KB — at a million sessions that is
// gigabytes); this provides the few uniform draws a session, a lossy link or
// the scenario harness's setup choices need, each stream deterministic on
// its own.
type PRNG uint64

// NewPRNG seeds a generator through one splitmix64 step, so neighbouring
// seeds give unrelated streams; the state is never zero, which xorshift
// could not leave.
func NewPRNG(seed uint64) PRNG {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return PRNG(z)
}

// Next returns the next 64 bits.
func (p *PRNG) Next() uint64 {
	x := uint64(*p)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*p = PRNG(x)
	return x
}

// F64 returns a uniform draw in [0, 1): the top 53 bits of Next.
func (p *PRNG) F64() float64 { return float64(p.Next()>>11) / (1 << 53) }

// Intn returns a draw in [0, n).
func (p *PRNG) Intn(n int) int { return int(p.Next() % uint64(n)) }
