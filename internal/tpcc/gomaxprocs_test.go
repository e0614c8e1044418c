package tpcc

import (
	"context"
	"runtime"
	"testing"

	"github.com/reprolab/face/internal/engine"
)

// TestDefaultEngineIgnoresGOMAXPROCS: a default engine's modelled figures
// do not depend on the host's core count.  One terminal runs a fixed TPC-C
// schedule on FaCE+GSC with a buffer far smaller than the data, once on one
// processor and once on four; the devices, the buffer pool and the flash
// cache must see the same work, and the model must charge the same time.
func TestDefaultEngineIgnoresGOMAXPROCS(t *testing.T) {
	run := func(procs int) engine.Snapshot {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		eng := newEngine(t, engine.PolicyFaCEGSC)
		db, err := Load(eng, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := NewDriver(eng, db, 42).RunTerminals(context.Background(), 1, 300); err != nil {
			t.Fatal(err)
		}
		return eng.Snapshot()
	}
	one, four := run(1), run(4)
	if one.Pool.Evictions == 0 {
		t.Fatalf("the buffer never evicted: %+v", one.Pool)
	}
	same := func(what string, a, b any) {
		t.Helper()
		if a != b {
			t.Errorf("%s moved with GOMAXPROCS:\n  1: %+v\n  4: %+v", what, a, b)
		}
	}
	same("data device", one.Data, four.Data)
	same("log device", one.Log, four.Log)
	same("flash device", one.Flash, four.Flash)
	same("buffer pool", one.Pool, four.Pool)
	same("flash cache", one.Cache, four.Cache)
	same("modelled elapsed time", one.Elapsed, four.Elapsed)
}
