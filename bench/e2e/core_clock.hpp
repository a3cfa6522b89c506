#pragma once
// The clock rate of the core the calling thread runs on, measured in user
// space. On a shared VM the hypervisor's host moves this rate by 20% or more
// over minutes as other guests load the package, and every host time of the
// simulator moves with it. The gated host metrics are therefore reported at
// a fixed reference clock: a wall time t measured while the core ran at f GHz
// reads t * f / kReferenceGhz, the time the same cycles take at the
// reference clock. The wall values are printed beside them.

namespace mpixccl::e2e {

/// The reference clock host times are scaled to: a round value inside the
/// development VM's 2.3-3.0 GHz range.
inline constexpr double kReferenceGhz = 2.5;

/// Core clock estimate in GHz: a chain of dependent multiply-adds (four
/// cycles each) timed on the steady clock, best of three short tries, so an
/// interrupt inflates none of them. Takes about half a millisecond.
double core_clock_ghz();

}  // namespace mpixccl::e2e
