/**
 * @file
 * Determinism self-test of the benchmark: a round is a pure function of
 * (workload, seed). Two rounds at one seed - one of them traced - must
 * give bit-identical simulated metrics and counters, and another seed
 * must generate another request stream. Any drift here is a
 * nondeterminism bug in the simulator or the benchmark; it is reported,
 * never rounded away.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace memifbench {
namespace {

Round
run(const std::string &workload, std::uint64_t seed, bool trace)
{
    Tracer tracer(trace);
    Round r = run_round(workload, seed, tracer, host_cpu_seconds());
    for (const std::string &e : r.errors) ADD_FAILURE() << workload << ": " << e;
    return r;
}

class Determinism : public ::testing::TestWithParam<std::string> {};

TEST_P(Determinism, SameSeedIsBitIdenticalWithAndWithoutTracing)
{
    const Round a = run(GetParam(), 7, false);
    const Round b = run(GetParam(), 7, true);
    ASSERT_EQ(a.sim.size(), b.sim.size());
    for (std::size_t i = 0; i < a.sim.size(); ++i) {
        EXPECT_EQ(a.sim[i].name, b.sim[i].name);
        EXPECT_EQ(std::memcmp(&a.sim[i].value, &b.sim[i].value,
                              sizeof a.sim[i].value),
                  0)
            << a.sim[i].name << ": " << a.sim[i].value << " vs "
            << b.sim[i].value;
    }
    EXPECT_EQ(a.attempted, b.attempted);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.stream_digest, b.stream_digest);
    EXPECT_GT(a.attempted, 0u);
}

TEST_P(Determinism, AnotherSeedGeneratesAnotherStream)
{
    const Round a = run(GetParam(), 7, false);
    const Round c = run(GetParam(), 8, false);
    EXPECT_NE(a.stream_digest, c.stream_digest);
    EXPECT_NE(a.sim_value("sim_gbps"), c.sim_value("sim_gbps"));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Determinism, ::testing::ValuesIn(workload_names()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &ch : name)
            if (ch == '-') ch = '_';
        return name;
    });

}  // namespace
}  // namespace memifbench
