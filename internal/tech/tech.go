// Package tech holds the technology assumptions shared by the delay, area
// and energy models: a 32 nm process clocked at 19 FO4 per cycle, matching
// the Intel Core2 Duo E8600 class chip assumed by the paper (Section IV).
package tech

// DeviceClass selects the transistor flavor used by an SRAM array.
// The paper uses Low Operating Power devices for the L3 and High
// Performance devices everywhere else.
type DeviceClass int

const (
	// HP is the high-performance, high-leakage device class.
	HP DeviceClass = iota
	// LOP is the low-operating-power, low-leakage device class.
	LOP
)

func (d DeviceClass) String() string {
	switch d {
	case HP:
		return "HP"
	case LOP:
		return "LOP"
	default:
		return "unknown-device-class"
	}
}

const (
	// FO4PerCycle is the clock period expressed in fanout-of-4 inverter
	// delays (Section IV: "a cycle time of 19 FO4s").
	FO4PerCycle = 19.0

	// FO4Picoseconds is the delay of one FO4 inverter at 32 nm.
	// 19 FO4 x 15.8 ps = 300 ps, i.e. a 3.33 GHz clock, the frequency of
	// the Core2 Duo E8600 the paper references.
	FO4Picoseconds = 15.8

	// CyclePicoseconds is the clock period in picoseconds.
	CyclePicoseconds = FO4PerCycle * FO4Picoseconds

	// CycleSeconds is the clock period in seconds.
	CycleSeconds = CyclePicoseconds * 1e-12

	// ClockHz is the resulting clock frequency in hertz.
	ClockHz = 1.0 / CycleSeconds

	// ProcessNm is the feature size in nanometers.
	ProcessNm = 32
)

// Seconds converts a cycle count into wall-clock seconds at the modeled
// frequency.
func Seconds(cycles uint64) float64 {
	return float64(cycles) * CycleSeconds
}
