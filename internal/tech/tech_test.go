package tech

import (
	"math"
	"testing"
)

func TestCycleTimeMatchesCore2Class(t *testing.T) {
	// 19 FO4 at 32 nm should land very close to a 3.33 GHz clock.
	ghz := ClockHz / 1e9
	if ghz < 3.0 || ghz > 3.7 {
		t.Fatalf("clock = %.3f GHz, want Core2 E8600 class (~3.33 GHz)", ghz)
	}
}

func TestSecondsScalesLinearly(t *testing.T) {
	one := Seconds(1)
	million := Seconds(1_000_000)
	if math.Abs(million-one*1e6) > 1e-18 {
		t.Fatalf("Seconds not linear: Seconds(1e6)=%g, 1e6*Seconds(1)=%g", million, one*1e6)
	}
	if one <= 0 {
		t.Fatalf("Seconds(1) = %g, want positive", one)
	}
}

func TestCyclePicoseconds(t *testing.T) {
	want := FO4PerCycle * FO4Picoseconds
	if CyclePicoseconds != want {
		t.Fatalf("CyclePicoseconds = %v, want %v", CyclePicoseconds, want)
	}
	// Sanity: a cycle must be longer than a single FO4.
	if CyclePicoseconds <= FO4Picoseconds {
		t.Fatal("cycle shorter than one FO4")
	}
}

func TestDeviceClassString(t *testing.T) {
	cases := []struct {
		d    DeviceClass
		want string
	}{
		{HP, "HP"},
		{LOP, "LOP"},
		{DeviceClass(99), "unknown-device-class"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("DeviceClass(%d).String() = %q, want %q", c.d, got, c.want)
		}
	}
}
