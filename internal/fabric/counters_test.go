package fabric

import (
	"reflect"
	"testing"

	"nesc/internal/sim"
)

// The fleet total is Counters.Add over the mirror clients. Walk the struct by
// reflection so that a counter added later cannot be left out of the total:
// every int64 field sums, LastFailoverLatency keeps the maximum.
func TestCountersAddCoversEveryField(t *testing.T) {
	var a, b, sum Counters
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("field %s is %s: teach Add and this test about it", av.Type().Field(i).Name, av.Field(i).Kind())
		}
		av.Field(i).SetInt(int64(100 * (i + 1)))
		bv.Field(i).SetInt(int64(i + 1))
	}
	sum.Add(&a)
	sum.Add(&b)
	sv := reflect.ValueOf(sum)
	for i := 0; i < sv.NumField(); i++ {
		want := int64(101 * (i + 1))
		if sv.Field(i).Type() == reflect.TypeOf(sim.Time(0)) {
			want = int64(100 * (i + 1)) // a latency: the larger of the two, not their sum
		}
		if got := sv.Field(i).Int(); got != want {
			t.Errorf("%s = %d after Add, want %d", sv.Type().Field(i).Name, got, want)
		}
	}
}
