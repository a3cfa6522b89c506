#pragma once
// The layer ladder: host-clock costs of each module measured by calling its
// public entry points directly from the benchmark, on three worlds
// (thetagpu 1x4, thetagpu 2x2, voyager 1x4), plus the virtual-time stage
// shares of hier allreduces and one dl::run_training run. The names are the
// layer rows of spec.cpp.

#include <string>
#include <utility>
#include <vector>

#include "host_trace.hpp"

namespace mpixccl::e2e {

using NamedValues = std::vector<std::pair<std::string, double>>;

NamedValues run_ladder(HostTrace* trace);

}  // namespace mpixccl::e2e
