package machvm_test

import (
	"testing"

	"machvm"
	"machvm/internal/trace"
	"machvm/internal/workload"
)

// TestConfigDefaultsAndBadSizes pins the one owner of world defaults: a
// zero size boots with its default on every construction path, and a
// negative size is an error from the facade and both world builders
// instead of a panic deep in the simulated hardware.
func TestConfigDefaultsAndBadSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  workload.Config
		opts *machvm.Options // nil: the facade has no such option
		bad  bool
	}{
		{"zero", workload.Config{}, &machvm.Options{}, false},
		{"MemoryMB", workload.Config{MemoryMB: -1}, &machvm.Options{MemoryMB: -1}, true},
		{"CPUs", workload.Config{CPUs: -2}, &machvm.Options{CPUs: -2}, true},
		{"DiskMB", workload.Config{DiskMB: -1}, &machvm.Options{DiskMB: -1}, true},
		{"NBufs", workload.Config{NBufs: -400}, nil, true},
		{"ObjectCacheSize", workload.Config{ObjectCacheSize: -1}, &machvm.Options{ObjectCacheSize: -1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := workload.BuildMachWorld(workload.ArchUVAX2, tc.cfg)
			if (err != nil) != tc.bad {
				t.Errorf("BuildMachWorld: err = %v, want error %v", err, tc.bad)
			}
			if w != nil {
				w.Close()
			}
			if _, err := workload.BuildUnixWorld(workload.ArchUVAX2, tc.cfg); (err != nil) != tc.bad {
				t.Errorf("BuildUnixWorld: err = %v, want error %v", err, tc.bad)
			}
			if tc.opts != nil {
				if _, err := machvm.New(machvm.VAX, *tc.opts); (err != nil) != tc.bad {
					t.Errorf("machvm.New: err = %v, want error %v", err, tc.bad)
				}
			}
		})
	}

	// Config{} and NewConfig() boot the same world, and the trace header
	// records the resolved defaults rather than the zeros.
	header := func(cfg workload.Config) trace.Header {
		w, err := workload.BuildMachWorld(workload.ArchUVAX2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		w.StartTrace()
		return w.StopTrace().Header
	}
	want := trace.Header{MemoryMB: 8, CPUs: 1, DiskMB: 64, ObjectCache: 4096, PageSize: 1024}
	if got := header(workload.Config{}); got != want {
		t.Errorf("Config{} header = %+v, want %+v", got, want)
	}
	if got := header(workload.NewConfig()); got != want {
		t.Errorf("NewConfig() header = %+v, want %+v", got, want)
	}
}
