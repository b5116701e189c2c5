package txn

import (
	"reflect"
	"testing"

	"drtmr/internal/obs"
)

// TestStatsMergeCoversEveryField walks Stats by reflection, gives every
// numeric leaf a distinct non-zero value, merges the result twice into a
// zero Stats and requires every leaf to have doubled (the peak in-flight
// counter: to be unchanged). A counter added without its Merge line fails
// here; a field of a kind the walk does not know fails it too, so the walk
// cannot silently skip anything.
func TestStatsMergeCoversEveryField(t *testing.T) {
	var src Stats
	var next uint64
	var fill func(path string, v reflect.Value)
	fill = func(path string, v reflect.Value) {
		next++
		if v.CanAddr() {
			// The obs aggregates keep their cells private: fill them
			// through their own recording calls.
			switch x := v.Addr().Interface().(type) {
			case *obs.Histogram:
				x.Record(int64(next))
				return
			case *obs.AbortMatrix:
				x.Record(uint8(next%obs.NumReasons), uint8(next%obs.NumStages), int(next%obs.NumSites))
				return
			}
		}
		switch v.Kind() {
		case reflect.Uint64:
			v.SetUint(next)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(path, v.Index(i))
			}
		case reflect.Map:
			e := reflect.New(v.Type().Elem()).Elem()
			fill(path, e)
			v.Set(reflect.MakeMap(v.Type()))
			v.SetMapIndex(reflect.Zero(v.Type().Key()), e)
		default:
			t.Fatalf("%s: a %s field; teach this test and Stats.Merge about it", path, v.Kind())
		}
	}
	fill("Stats", reflect.ValueOf(&src).Elem())

	var dst Stats
	dst.Merge(&src)
	dst.Merge(&src)

	leaves := 0
	var check func(path string, got, want reflect.Value)
	check = func(path string, got, want reflect.Value) {
		if want.CanAddr() {
			switch w := want.Addr().Interface().(type) {
			case *obs.Histogram:
				g := got.Addr().Interface().(*obs.Histogram)
				if g.Count() != 2*w.Count() || g.Sum() != 2*w.Sum() {
					t.Errorf("%s: n=%d sum=%d after two merges of n=%d sum=%d", path, g.Count(), g.Sum(), w.Count(), w.Sum())
				}
				leaves++
				return
			case *obs.AbortMatrix:
				g := got.Addr().Interface().(*obs.AbortMatrix)
				if g.Total() != 2*w.Total() {
					t.Errorf("%s: total %d after two merges of %d", path, g.Total(), w.Total())
				}
				leaves++
				return
			}
		}
		switch want.Kind() {
		case reflect.Uint64:
			leaves++
			exp := 2 * want.Uint()
			if got.Uint() != exp {
				t.Errorf("%s = %d after two merges of %d, want %d: missing from Stats.Merge?", path, got.Uint(), want.Uint(), exp)
			}
		case reflect.Struct:
			for i := 0; i < want.NumField(); i++ {
				check(path+"."+want.Type().Field(i).Name, got.Field(i), want.Field(i))
			}
		case reflect.Array:
			for i := 0; i < want.Len(); i++ {
				check(path, got.Index(i), want.Index(i))
			}
		case reflect.Map:
			for _, k := range want.MapKeys() {
				g := got.MapIndex(k)
				if !g.IsValid() {
					t.Errorf("%s: key %v missing after merge", path, k)
					continue
				}
				check(path, g, want.MapIndex(k))
			}
		}
	}
	check("Stats", reflect.ValueOf(&dst).Elem(), reflect.ValueOf(&src).Elem())
	if leaves < 20 {
		t.Fatalf("walked only %d leaves; the walk is broken", leaves)
	}
}
