// Package simclock models the per-device time coordinates of the paper's
// protocol. Each device has its own Clock: an arbitrary origin offset from
// global simulation time plus a slightly skewed sample clock (crystal ppm
// error). ACTION's Eq. 3 is designed so these never need to be reconciled;
// the simulator keeps them distinct precisely so tests can prove that.
//
// Key conversions: SampleAt maps global seconds to a device's (fractional)
// local sample index; TrueRate is the skewed ADC
// rate the renderer uses while NominalRate is what protocol code believes.
// SampleAt is affine in time — the property the composite-kernel renderer
// relies on to fold per-tap delays into one kernel per play.
package simclock
