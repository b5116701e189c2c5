package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestCachelineHelpers(t *testing.T) {
	if LineOf(0) != 0 || LineOf(63) != 0 || LineOf(64) != 1 {
		t.Fatal("LineOf")
	}
	if AlignUp(0) != 0 || AlignUp(1) != 64 || AlignUp(64) != 64 || AlignUp(65) != 128 {
		t.Fatal("AlignUp")
	}
}

func TestClock(t *testing.T) {
	var c Clock
	c.Advance(100 * time.Nanosecond)
	c.Advance(-5) // negative ignored
	if c.Now() != 100 {
		t.Fatalf("Now: %d", c.Now())
	}
	c.AdvanceTo(50) // backwards ignored
	if c.Now() != 100 {
		t.Fatalf("AdvanceTo backwards: %d", c.Now())
	}
	c.AdvanceTo(250)
	if c.Now() != 250 {
		t.Fatalf("AdvanceTo: %d", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("Reset")
	}
}

func TestResourceQueueing(t *testing.T) {
	var r Resource
	// Two back-to-back uses from the same instant serialize.
	end1 := r.Use(0, 100)
	end2 := r.Use(0, 100)
	if end1 != 100 || end2 != 200 {
		t.Fatalf("serialize: %d %d", end1, end2)
	}
	// A late arrival starts at its own time if the server is idle.
	end3 := r.Use(1000, 50)
	if end3 != 1050 {
		t.Fatalf("idle start: %d", end3)
	}
	if r.Use(0, 0) != 0 {
		t.Fatal("zero duration")
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same stream")
		}
	}
	if NewRand(0).Uint64() == 0 {
		t.Fatal("zero seed must be remapped")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(3)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if v := r.UniformInt(5, 10); v < 5 || v > 10 {
			t.Fatalf("UniformInt out of range: %d", v)
		}
		if v := r.NURand(255, 1, 100, 33); v < 1 || v > 100 {
			t.Fatalf("NURand out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %f", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(11)
	const n = 1000
	counts := make([]int, n)
	for i := 0; i < 50000; i++ {
		v := r.Zipf(n, 0.8)
		if v < 0 || v >= n {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// The first decile must receive well over its uniform share.
	first := 0
	for i := 0; i < n/10; i++ {
		first += counts[i]
	}
	if float64(first)/50000 < 0.3 {
		t.Fatalf("Zipf not skewed: first decile %.2f", float64(first)/50000)
	}
}

func TestPerm(t *testing.T) {
	r := NewRand(5)
	out := make([]int, 20)
	r.Perm(out)
	seen := map[int]bool{}
	for _, v := range out {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", out)
		}
		seen[v] = true
	}
}

func TestFrontierBehind(t *testing.T) {
	var f Frontier
	var a, b Clock
	ra, rb := f.Join(&a), f.Join(&b)
	a.AdvanceTo(100)
	b.AdvanceTo(50)
	if got := ra.Behind(60); got != rb {
		t.Fatalf("a jumping to 60 passes b at 50: Behind = %p, want %p", got, rb)
	}
	if got := rb.Behind(60); got != nil {
		t.Fatal("b jumping to 60 passes nobody: a is at 100 and b does not count itself")
	}
	// A published horizon stands in for the clock, until withdrawn.
	rb.IdleUntil(80)
	if ra.Behind(80) != nil || ra.Behind(81) != rb {
		t.Fatal("b idle until 80 is passed by a jump to 81 and by none up to 80")
	}
	rb.Busy()
	if ra.Behind(60) != rb {
		t.Fatal("Busy did not withdraw the horizon")
	}
	rb.IdleUntil(Forever)
	if ra.Behind(1<<60) != nil {
		t.Fatal("a runner waiting on the others is never passed")
	}
	rb.Busy()
	rb.Leave()
	if ra.Behind(1<<60) != nil {
		t.Fatal("a runner that left is still in the way")
	}
	ra.Leave()
}

// TestFrontierFollow: a follower sleeps until the runner it follows has
// reached its instant — by its clock, by a horizon, or by leaving — and no
// sooner.
func TestFrontierFollow(t *testing.T) {
	var f Frontier
	var a, b Clock
	ra, rb := f.Join(&a), f.Join(&b)
	follow := func(at int64) chan bool {
		done := make(chan bool, 1)
		go func() { done <- ra.Follow(rb, at) }()
		return done
	}

	done := follow(100)
	b.AdvanceTo(99)
	rb.Step()
	select {
	case <-done:
		t.Fatal("released with the followed clock at 99 of 100")
	case <-time.After(10 * time.Millisecond):
	}
	b.AdvanceTo(100)
	rb.Step()
	if !<-done {
		t.Fatal("Follow ran out of patience although the clock got there")
	}

	done = follow(200)
	rb.IdleUntil(300) // nothing to do before 300: as good as being there
	if !<-done {
		t.Fatal("a horizon past the instant did not release the follower")
	}
	rb.Busy()

	done = follow(1 << 40)
	rb.Leave()
	if !<-done {
		t.Fatal("Leave did not release the follower")
	}
	if ra.Follow(rb, 1<<50) != true {
		t.Fatal("following a runner that has left must return at once")
	}
	ra.Leave()
}

// TestRunnerAllocFree pins what a coroutine dispatcher calls on its runner on
// every pass — Behind, Step, IdleUntil, Busy — and the release of a follower
// to zero allocations: once registered the first time, a follower is woken
// through its own wake channel and the follower list is reused.
func TestRunnerAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	var f Frontier
	var a, b Clock
	ra, rb := f.Join(&a), f.Join(&b)
	rb.wake = make(chan struct{}, 1)
	allocs := testing.AllocsPerRun(200, func() {
		a.Advance(time.Microsecond)
		if ra.Behind(a.Now()) != rb {
			t.Fatal("b at 0 is not behind a")
		}
		// rb follows ra to ra's next instant, registered as Follow does it.
		at := a.Now() + 1
		ra.followers = append(ra.followers, follower{rb, at})
		ra.wakeAt.Store(at)
		ra.Step() // not there yet: nobody is woken
		ra.IdleUntil(at)
		select {
		case <-rb.wake:
		default:
			t.Fatal("a horizon at the follower's instant did not release it")
		}
		ra.Busy()
	})
	if allocs != 0 {
		t.Errorf("Runner methods allocate %v times per cycle, want 0", allocs)
	}
}

// TestFrontierFollowPatience: a runner that never moves again (stopped outside
// the simulator) costs its follower followPatience of host time, not a hang,
// and the follower is left clean for its next Follow.
func TestFrontierFollowPatience(t *testing.T) {
	defer func(d time.Duration) { followPatience = d }(followPatience)
	followPatience = 5 * time.Millisecond
	var f Frontier
	var a, b Clock
	ra, rb := f.Join(&a), f.Join(&b)
	start := time.Now()
	if ra.Follow(rb, 1000) {
		t.Fatal("released by a runner that never moved")
	}
	if waited := time.Since(start); waited < followPatience {
		t.Fatalf("gave up after %v, before followPatience %v", waited, followPatience)
	}
	if len(rb.followers) != 0 || len(ra.wake) != 0 {
		t.Fatalf("after giving up: %d followers registered, %d wake-ups pending", len(rb.followers), len(ra.wake))
	}
	b.AdvanceTo(1000)
	rb.Step() // corrects the stale wakeAt, wakes nobody
	if got := rb.wakeAt.Load(); got != Forever {
		t.Fatalf("wakeAt = %d with no follower, want Forever", got)
	}
	if !ra.Follow(rb, 1000) {
		t.Fatal("second Follow, already satisfied, did not return true")
	}
}
