package metrics

import (
	"testing"
	"time"

	"github.com/reprolab/face/internal/device"
)

func TestElapsedBottleneck(t *testing.T) {
	m := Model{CPUPerPageAccess: 10 * time.Microsecond, CPUParallelism: 2}
	// CPU: 1000 accesses * 10µs / 2 = 5ms.  Disk: 20ms/4 = 5ms.  Flash: 8ms.
	elapsed := m.Elapsed(1000,
		Resource{Name: "disk", Busy: 20 * time.Millisecond, Parallelism: 4},
		Resource{Name: "flash", Busy: 8 * time.Millisecond, Parallelism: 1},
	)
	if elapsed != 8*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 8ms (flash bottleneck)", elapsed)
	}
	// Remove the flash: disk and CPU tie at 5ms.
	elapsed = m.Elapsed(1000, Resource{Name: "disk", Busy: 20 * time.Millisecond, Parallelism: 4})
	if elapsed != 5*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 5ms", elapsed)
	}
}

func TestElapsedDefaultsAndClamps(t *testing.T) {
	m := DefaultModel()
	elapsed := m.Elapsed(0, Resource{Busy: time.Second, Parallelism: 0})
	if elapsed != time.Second {
		t.Fatalf("parallelism 0 should be treated as 1, got %v", elapsed)
	}
	d := DefaultModel()
	if d.CPUPerPageAccess != DefaultCPUPerPageAccess || d.CPUParallelism != DefaultCPUParallelism {
		t.Fatal("DefaultModel mismatch")
	}
}

func TestDeviceResource(t *testing.T) {
	dev := device.New("flash", device.ProfileSamsung470, 8)
	buf := make([]byte, device.BlockSize)
	if err := dev.WriteAt(3, buf); err != nil {
		t.Fatal(err)
	}
	r := DeviceResource(dev)
	if r.Name != "flash" || r.Busy != dev.BusyTime() || r.Parallelism != 1 {
		t.Fatalf("DeviceResource = %+v", r)
	}
	arr := device.NewArray("raid", device.ProfileCheetah15K, 4, 100)
	if DeviceResource(arr).Parallelism != 4 {
		t.Fatal("array parallelism not propagated")
	}
	if DeviceResource(nil).Busy != 0 {
		t.Fatal("nil device should produce a zero resource")
	}
}

func TestUtilization(t *testing.T) {
	if u := Utilization(500*time.Millisecond, time.Second); u != 0.5 {
		t.Fatalf("Utilization = %v", u)
	}
	if u := Utilization(2*time.Second, time.Second); u != 1 {
		t.Fatalf("Utilization should clamp to 1, got %v", u)
	}
	if u := Utilization(time.Second, 0); u != 0 {
		t.Fatalf("Utilization with zero elapsed = %v", u)
	}
	if u := Utilization(-time.Second, time.Second); u != 0 {
		t.Fatalf("negative busy should clamp to 0, got %v", u)
	}
}

func TestIOPSAndPerMinute(t *testing.T) {
	if got := IOPS(1000, time.Second); got != 1000 {
		t.Fatalf("IOPS = %v", got)
	}
	if got := IOPS(1000, 0); got != 0 {
		t.Fatalf("IOPS with zero elapsed = %v", got)
	}
	if got := PerMinute(100, time.Minute); got != 100 {
		t.Fatalf("PerMinute = %v", got)
	}
	if got := PerMinute(100, 0); got != 0 {
		t.Fatalf("PerMinute with zero elapsed = %v", got)
	}
	if got := PerMinute(50, 30*time.Second); got != 100 {
		t.Fatalf("PerMinute = %v, want 100", got)
	}
}
