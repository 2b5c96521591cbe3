package stats

import (
	"os"
	"runtime/pprof"
)

// StartCPUProfile starts a runtime/pprof CPU profile written to path and
// returns the function that stops it and closes the file. With an empty
// path it profiles nothing and returns a no-op. The CLIs' -cpuprofile
// flag calls it; the profile never touches what a run prints.
func StartCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
