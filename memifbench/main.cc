/**
 * @file
 * memifbench: the repository's benchmark. One invocation runs one
 * workload for a host-time budget as a sequence of identical rounds
 * (each builds a fresh machine, warms up, measures a fixed number of
 * operations, checks every delivered byte and tears down), then prints
 * every metric by name with its unit and, as its last line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   memifbench --workload mig-small --seed 1 --seconds 10 --trace 0
 *
 * Simulated metrics come from the first round; every later round must
 * reproduce them bit for bit (any drift is a nondeterminism bug and
 * fails the run). Host-time metrics are medians over rounds. With
 * --trace 1 the rounds alternate untraced / traced, the metrics are the
 * per-layer ones, and the first traced round's spans are written to
 * --trace-out.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

using memifbench::Metric;
using memifbench::Round;

/** Rounds every run makes at least, whatever the budget: enough for a
 *  median and for the round-to-round determinism check. */
constexpr int kMinRounds = 3;
/** In trace mode: two untraced and two traced rounds at least. */
constexpr int kMinTraceRounds = 4;

/** The end-to-end metrics BENCHMARK.json lists (printed with --trace 0). */
const char *const kEndToEnd[] = {"sim_gbps",      "lat_p50_us",
                                 "lat_p99_us",    "cpu_us_per_mb",
                                 "max_rate_kreq_s", "host_ops_per_s",
                                 "setup_s",       "peak_rss_mb"};

/** Printed with the end-to-end metrics but kept out of the JSON: they
 *  read 0 on healthy runs, and the JSON's failed/attempted carry the
 *  failure count already. */
const char *const kPrintedOnly[] = {"fail_frac", "bench.lat_samples",
                                    "bench.lat_tail_pct"};

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string trace_out;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "memifbench: %s\n"
                 "usage: memifbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n",
                 why);
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + key).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val, &end, 10);
            if (*val == '\0' || *end != '\0') usage("bad --seed");
            have_seed = true;
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val, &end);
            if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 3600.0)
                usage("bad --seconds");
        } else if (key == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                usage("--trace takes 0 or 1");
            a.trace = val[0] == '1';
        } else if (key == "--trace-out") {
            a.trace_out = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    const auto &names = memifbench::workload_names();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("unknown --workload");
    if (!have_seed) usage("--seed is required");
    if (a.seconds == 0.0) usage("--seconds is required");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB -> MB
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

/** First difference between two rounds' simulated metrics, or "". */
std::string
sim_drift(const Round &a, const Round &b)
{
    if (a.sim.size() != b.sim.size()) return "metric count differs";
    for (std::size_t i = 0; i < a.sim.size(); ++i) {
        const Metric &x = a.sim[i];
        const Metric &y = b.sim[i];
        if (x.name != y.name ||
            std::memcmp(&x.value, &y.value, sizeof x.value) != 0)
            return x.name + " " + fmt(x.value) + " vs " + fmt(y.value);
    }
    if (a.attempted != b.attempted || a.failed != b.failed)
        return "attempted/failed differ";
    if (a.stream_digest != b.stream_digest) return "request stream differs";
    return "";
}

}  // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    const double t_begin = memifbench::host_seconds();

    std::vector<Round> rounds;
    std::vector<bool> traced;
    memifbench::Tracer kept(false);
    std::vector<std::string> errors;
    // Set-up is counted in CPU time of this (the only) thread; the first
    // round's counts from exec.
    double round_start = 0.0;
    for (int i = 0;; ++i) {
        const bool trace_round = args.trace && i % 2 == 1;
        memifbench::Tracer tracer(trace_round);
        Round r = memifbench::run_round(args.workload, args.seed, tracer,
                                        round_start);
        for (const std::string &e : r.errors)
            errors.push_back("round " + std::to_string(i) + ": " + e);
        if (!rounds.empty()) {
            const std::string drift = sim_drift(rounds.front(), r);
            if (!drift.empty())
                errors.push_back("round " + std::to_string(i) +
                                 " is not bit-identical to round 0: " + drift);
        }
        if (trace_round && !kept.on()) kept = std::move(tracer);
        rounds.push_back(std::move(r));
        traced.push_back(trace_round);
        const int min_rounds = args.trace ? kMinTraceRounds : kMinRounds;
        const double now = memifbench::host_seconds();
        if (!errors.empty()) break;
        if (i + 1 >= min_rounds && now - t_begin >= args.seconds) break;
        round_start = memifbench::host_cpu_seconds();
    }

    const Round &first = rounds.front();
    std::vector<double> setup, ops_plain, ops_traced, build, mmap_s,
        ns_per_event;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        const Round &r = rounds[i];
        const double ops = static_cast<double>(r.measured_ops) /
                           r.measured_host_s * r.host_slowdown;
        (traced[i] ? ops_traced : ops_plain).push_back(ops);
        if (traced[i]) continue;
        setup.push_back(r.setup_s);
        for (const Metric &m : r.host) {
            if (m.name == "os.kernel_build_s") build.push_back(m.value);
            if (m.name == "vm.mmap_s") mmap_s.push_back(m.value);
            if (m.name == "sim.host_ns_per_event")
                ns_per_event.push_back(m.value);
        }
    }

    std::vector<Metric> e2e = first.sim;
    e2e.push_back({"host_ops_per_s", "ops/s", median(ops_plain)});
    e2e.push_back({"setup_s", "s", median(setup)});
    e2e.push_back({"peak_rss_mb", "MB", peak_rss_mb()});

    auto is_e2e = [](const std::string &n) {
        for (const char *k : kEndToEnd)
            if (n == k) return true;
        for (const char *k : kPrintedOnly)
            if (n == k) return true;
        return false;
    };

    std::printf("workload %s seed %llu rounds %zu (%s)\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), rounds.size(),
                args.trace ? "alternating untraced/traced" : "untraced");
    std::printf("end-to-end (simulated metrics from round 0, host metrics "
                "median over untraced rounds):\n");
    for (const Metric &m : e2e)
        if (is_e2e(m.name))
            std::printf("  %-34s %16s %s\n", m.name.c_str(),
                        fmt(m.value).c_str(), m.unit.c_str());

    for (const std::string &n : first.notes) std::printf("  %s\n", n.c_str());

    std::vector<Metric> layer;
    if (args.trace) {
        for (const Metric &m : first.sim)
            if (!is_e2e(m.name)) layer.push_back(m);
        layer.push_back({"os.kernel_build_s", "s", median(build)});
        layer.push_back({"vm.mmap_s", "s", median(mmap_s)});
        layer.push_back(
            {"sim.host_ns_per_event", "ns", median(ns_per_event)});
        const double plain = median(ops_plain);
        const double with_trace = median(ops_traced);
        layer.push_back({"bench.trace_overhead_frac", "ratio",
                         plain > 0.0 ? 1.0 - with_trace / plain : 0.0});
        std::printf("per-layer (traced run):\n");
        for (const Metric &m : layer)
            std::printf("  %-34s %16s %s\n", m.name.c_str(),
                        fmt(m.value).c_str(), m.unit.c_str());
        if (!args.trace_out.empty()) {
            if (kept.write(args.trace_out))
                std::printf("spans written to %s\n", args.trace_out.c_str());
            else
                errors.push_back("could not write " + args.trace_out);
        }
    }

    std::vector<Metric> out;
    if (args.trace) {
        out = layer;
    } else {
        for (const char *k : kEndToEnd)
            for (const Metric &m : e2e)
                if (m.name == k) out.push_back(m);
    }
    for (const Metric &m : out)
        if (!std::isfinite(m.value))
            errors.push_back("metric " + m.name + " is not finite");

    // One corrupted region fails every later check of it; show the first
    // failures and count the rest.
    constexpr std::size_t kShownErrors = 20;
    for (std::size_t i = 0; i < errors.size() && i < kShownErrors; ++i)
        std::printf("CHECK FAILED: %s\n", errors[i].c_str());
    if (errors.size() > kShownErrors)
        std::printf("CHECK FAILED: ... and %zu more\n",
                    errors.size() - kShownErrors);
    const bool correct = errors.empty();

    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(first.attempted) +
                       ", \"failed\": " + std::to_string(first.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i) {
        const Metric &m = out[i];
        char buf[256];
        // A non-finite value already failed the run; print 0 so the line
        // stays valid JSON.
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", m.name.c_str(),
                      std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
