package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"github.com/reprolab/face/internal/page"
)

// TestAllocBudgetCodec: one SET written and read back allocates three
// objects — the frame written, the frame body read and the Request — and
// nothing for the length prefix or the namespace name.  It skips under the
// race build, whose detector allocates on its own account.
func TestAllocBudgetCodec(t *testing.T) {
	if page.RecycleGuard {
		t.Skip("allocation budgets are not measured under the race build")
	}
	var frame bytes.Buffer
	rd := bufio.NewReader(&frame)
	req := &Request{Op: OpSet, Seq: 1, NS: "bench", Key: 42, Value: make([]byte, 128)}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := WriteRequest(&frame, req); err != nil {
			t.Fatal(err)
		}
		got, err := ReadRequest(rd)
		if err != nil || got.Key != req.Key || got.NS != req.NS {
			t.Fatalf("read back %+v, %v", got, err)
		}
	})
	t.Logf("%.1f allocations a SET written and read back", allocs)
	if allocs > 3 {
		t.Fatalf("a SET written and read back costs %.1f allocations, budget is 3", allocs)
	}
}

// TestInternReturnsTheName: more names than the table holds, each read
// twice, come back equal to their bytes, whichever entry they evicted.
func TestInternReturnsTheName(t *testing.T) {
	for round := range 2 {
		for i := range 3 * len(names) {
			name := fmt.Sprintf("ns-%d", i)
			if got := intern([]byte(name)); got != name {
				t.Fatalf("round %d: intern(%q) = %q", round, name, got)
			}
		}
	}
}
