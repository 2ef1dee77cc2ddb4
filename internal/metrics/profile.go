package metrics

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfile starts a CPU profile into prefix.cpu.pprof and returns the
// function that finishes it and writes a heap profile to prefix.heap.pprof.
// An empty prefix profiles nothing, and stop is a no-op. Call stop before
// the process exits: os.Exit runs no deferred calls, and a CPU profile that
// is never stopped stays empty.
func StartProfile(prefix string) (stop func() error, err error) {
	if prefix == "" {
		return func() error { return nil }, nil
	}
	cf, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cf); err != nil {
		cf.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		err := cf.Close()
		hf, herr := os.Create(prefix + ".heap.pprof")
		if herr != nil {
			return errors.Join(err, herr)
		}
		runtime.GC()
		return errors.Join(err, pprof.WriteHeapProfile(hf), hf.Close())
	}, nil
}
