/**
 * @file
 * The benchmark's four workloads. Each call builds a fresh machine,
 * runs a warm-up phase and a measured phase of fixed size, checks every
 * delivered byte, and tears the machine down again, so one round is
 * fully determined by (workload, seed).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace memifbench {

/** Names of the workloads, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workload_names();

/**
 * Run one round of @p workload. @p round_start is the host time the
 * round's set-up is measured from (process start for the first round).
 */
Round run_round(const std::string &workload, std::uint64_t seed,
                Tracer &tracer, double round_start);

}  // namespace memifbench
