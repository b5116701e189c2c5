// Fixture for the virtualtime analyzer: wall-clock and global-randomness
// sources that would break seeded-replay bit-determinism.
package virtualtime

import (
	crand "crypto/rand"
	"math/rand"
	"time"
)

func badClock() int64 {
	t := time.Now()                // want "time.Now reads the wall clock"
	time.Sleep(time.Millisecond)   // want "time.Sleep reads the wall clock"
	<-time.After(time.Millisecond) // want "time.After reads the wall clock"
	_ = time.Since(t)              // want "time.Since reads the wall clock"
	return t.UnixNano()
}

func badGlobalRand() int {
	rand.Seed(42)       // want "math/rand.Seed draws from the global"
	n := rand.Intn(4)   // want "math/rand.Intn draws from the global"
	f := rand.Float64() // want "math/rand.Float64 draws from the global"
	return n + int(f)
}

func badCryptoRand(buf []byte) {
	_, _ = crand.Read(buf) // want "crypto/rand is nondeterministic"
}

func okSeeded() int {
	r := rand.New(rand.NewSource(42)) // explicit deterministic source: fine
	return r.Intn(4)                  // method on the seeded source: fine
}

func okDurations() time.Duration {
	return 3 * time.Microsecond // time's types and constants are fine
}

func allowedWallClock() int64 {
	//drtmr:allow virtualtime socket deadline on a real network client, deliberately wall-clock
	return time.Now().UnixNano()
}

func missingReason() int64 {
	return time.Now().UnixNano() //drtmr:allow virtualtime // want "time.Now reads the wall clock" "missing the required reason"
}
