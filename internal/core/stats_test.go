package core

import (
	"reflect"
	"testing"
)

// TestStatsSnapshotParity checks that Stats and StatsSnapshot, both
// instantiated from the one counter list, line up field for field, and
// that Snapshot's array-view loop copies every counter into its own
// field: a counter it dropped or misplaced would silently vanish from
// traces and tools.
func TestStatsSnapshotParity(t *testing.T) {
	st := reflect.TypeOf(Stats{})
	snapT := reflect.TypeOf(StatsSnapshot{})
	if st.NumField() != snapT.NumField() {
		t.Fatalf("Stats has %d fields, StatsSnapshot has %d", st.NumField(), snapT.NumField())
	}
	for i := 0; i < st.NumField(); i++ {
		sf, pf := st.Field(i), snapT.Field(i)
		if sf.Name != pf.Name {
			t.Errorf("field %d: Stats.%s vs StatsSnapshot.%s (order/name mismatch)", i, sf.Name, pf.Name)
		}
		if pf.Type.Kind() != reflect.Uint64 {
			t.Errorf("StatsSnapshot.%s is %s, want uint64", pf.Name, pf.Type)
		}
	}

	// Set each counter to a distinct value and verify Snapshot copies all.
	var s Stats
	sv := reflect.ValueOf(&s).Elem()
	for i := 0; i < st.NumField(); i++ {
		sv.Field(i).Addr().MethodByName("Store").Call([]reflect.Value{reflect.ValueOf(uint64(i + 1))})
	}
	snap := s.Snapshot()
	nv := reflect.ValueOf(snap)
	for i := 0; i < snapT.NumField(); i++ {
		if got := nv.Field(i).Uint(); got != uint64(i+1) {
			t.Errorf("Snapshot dropped %s: got %d, want %d", snapT.Field(i).Name, got, i+1)
		}
	}
}
