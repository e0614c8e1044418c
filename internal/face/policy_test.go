package face

import (
	"strings"
	"testing"

	"github.com/reprolab/face/internal/device"
	"github.com/reprolab/face/internal/page"
)

func policyParams() PolicyParams {
	return PolicyParams{
		Dev:       device.New("flash", device.ProfileSamsung470, 2048),
		Frames:    256,
		GroupSize: 16,
		DiskWrite: func(id page.ID, data page.Buf) error { return nil },
	}
}

func TestBuiltinPoliciesRegistered(t *testing.T) {
	for _, name := range []string{"none", "face", "face+gr", "face+gsc", "lc", "wt"} {
		if !PolicyRegistered(name) {
			t.Fatalf("built-in policy %q not registered", name)
		}
	}
	if PolicyRegistered("bogus") {
		t.Fatal("unregistered policy reported as registered")
	}
	if PolicyUsesFlash("none") {
		t.Fatal("policy none should not use flash")
	}
	for _, name := range []string{"face", "face+gr", "face+gsc", "lc", "wt"} {
		if !PolicyUsesFlash(name) {
			t.Fatalf("policy %q should use flash", name)
		}
	}
}

func TestNewPolicyConstructsEveryScheme(t *testing.T) {
	wantNames := map[string]string{
		"face": "FaCE", "face+gr": "FaCE+GR", "face+gsc": "FaCE+GSC",
		"lc": "LC", "wt": "WT",
	}
	for name, display := range wantNames {
		ext, err := NewPolicy(name, policyParams())
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if ext == nil {
			t.Fatalf("NewPolicy(%q) returned a nil extension", name)
		}
		if ext.Name() != display {
			t.Fatalf("NewPolicy(%q).Name() = %q, want %q", name, ext.Name(), display)
		}
	}
	if ext, err := NewPolicy("none", policyParams()); err != nil || ext != nil {
		t.Fatalf("NewPolicy(none) = %v, %v; want nil, nil", ext, err)
	}
	if _, err := NewPolicy("bogus", policyParams()); err == nil ||
		!strings.Contains(err.Error(), "unknown cache policy") {
		t.Fatalf("NewPolicy(bogus) error = %v", err)
	}
}

func TestPoliciesSortedAndComplete(t *testing.T) {
	names := Policies()
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"none", "face", "face+gr", "face+gsc", "lc", "wt"} {
		if !seen[want] {
			t.Fatalf("Policies() = %v is missing %q", names, want)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Policies() not sorted: %v", names)
		}
	}
}
