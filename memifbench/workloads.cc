#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <map>
#include <memory>
#include <utility>

#include "memif/memif.h"
#include "sim/random.h"
#include "sim/sync.h"

namespace memifbench {

using namespace memif;

namespace {

constexpr std::uint64_t kPage = mem::kPageSize;

using Regions = std::vector<std::pair<os::Process *, vm::VAddr>>;

/** Lifecycle of one operation, for the exactly-once check. */
enum OpState : std::uint8_t { kUnsent = 0, kOutstanding, kDone, kFailed };

/** One entry of a seeded size mix: @p pages with relative @p weight. */
struct MixEntry {
    std::uint32_t pages;
    std::uint32_t weight;
};

std::uint32_t
draw(sim::Rng &rng, const std::vector<MixEntry> &mix)
{
    std::uint32_t total = 0;
    for (const MixEntry &m : mix) total += m.weight;
    auto r = static_cast<std::uint32_t>(rng.next_below(total));
    for (const MixEntry &m : mix) {
        if (r < m.weight) return m.pages;
        r -= m.weight;
    }
    return mix.back().pages;
}

/** Seeded exponential draw with mean @p mean. */
double
exponential(sim::Rng &rng, double mean)
{
    return -std::log1p(-rng.next_double()) * mean;
}

/** Index of a uniformly drawn slot that is not busy and satisfies
 *  @p fits, or ~0u when there is none. */
template <typename Slots, typename Fits>
std::uint32_t
pick_idle(sim::Rng &rng, const Slots &slots, Fits fits)
{
    std::uint32_t idle = 0;
    for (const auto &s : slots) idle += !s.busy && fits(s) ? 1 : 0;
    if (idle == 0) return ~0u;
    auto k = static_cast<std::uint32_t>(rng.next_below(idle));
    for (std::uint32_t i = 0;; ++i) {
        if (slots[i].busy || !fits(slots[i])) continue;
        if (k-- == 0) return i;
    }
}

/** Fraction of the @p pages pages at @p base whose frame is on @p node. */
double
frac_on_node(Rig &rig, vm::AddressSpace &as, vm::VAddr base,
             std::uint64_t pages, mem::NodeId node)
{
    const vm::Vma *vma = as.find_vma(base);
    if (vma == nullptr || pages == 0) return 0.0;
    const std::uint64_t first = vma->page_index(base);
    std::uint64_t on = 0;
    for (std::uint64_t i = 0; i < pages; ++i) {
        const vm::Pte pte = vma->pte(first + i);
        if (pte.present && !pte.migration &&
            rig.kernel->phys().node_of(pte.pfn) == node)
            ++on;
    }
    return static_cast<double>(on) / static_cast<double>(pages);
}

/** Workload-specific values every round reports (0 where they do not
 *  apply). */
struct Extras {
    double gen_late_p99_us = 0.0;
    double backlog_end = 0.0;
    double hot_on_sram_frac = 0.0;
    std::uint64_t heat_ping_pongs = 0;
};

/**
 * What the rounds of every workload share: the seeded stream, the rig,
 * the measured-phase bookkeeping (counter snapshots at its edges; the
 * host time spent checking bytes kept out of it), and the end-of-round
 * metrics and checks.
 */
class RoundBase {
  protected:
    RoundBase(std::uint64_t seed, Tracer &tracer, double round_start)
        : rng_(seed), tracer_(tracer), round_start_(round_start)
    {
    }

    /** Run @p fn as checking work, whose host time is not the
     *  simulator's. */
    template <typename Fn>
    void
    checking(Fn &&fn)
    {
        const double h0 = host_cpu_seconds();
        fn();
        check_host_s_ += host_cpu_seconds() - h0;
    }

    void
    start_measuring()
    {
        start_ = rig_->snap();
        start_check_s_ = check_host_s_;
        out_.setup_s = start_.host_cpu - round_start_;
        tracer_.counters("measure_start", snapshot_values(start_));
    }

    void
    stop_measuring()
    {
        end_ = rig_->snap();
        end_check_s_ = check_host_s_;
        tracer_.counters("measure_end", snapshot_values(end_));
    }

    /**
     * Everything after the workload's end-to-end metrics: the host
     * figures of the measured phase (@p ops operations), the per-layer
     * metrics, and the teardown checks over @p regions.
     */
    void
    finish_round(std::uint64_t ops, const std::vector<OpTiming> &stages,
                 const Extras &x, const Regions &regions)
    {
        Rig &rig = *rig_;
        out_.measured_ops = ops;
        out_.measured_host_s = (end_.host_cpu - start_.host_cpu) -
                               (end_check_s_ - start_check_s_) -
                               (end_.cal.cpu_s - start_.cal.cpu_s);
        out_.host_slowdown = slowdown(start_.cal, end_.cal);
        out_.stream_digest = digest_;

        layer_metrics(start_, end_, ops,
                      end_.dev.pages_moved - start_.dev.pages_moved, out_);
        stage_metrics(stages, out_);
        sim::Duration max_wait = 0;
        for (std::uint32_t t = 0; t < rig.dev->num_tenants(); ++t)
            max_wait =
                std::max(max_wait, rig.dev->tenant_stats(t).max_slot_wait);
        double fairness = rig.dev->fairness_ratio();
        // A starved tenant reads +inf; keep the value printable.
        if (!std::isfinite(fairness)) fairness = 1e9;
        out_.sim.push_back({"memif.tenant_max_slot_wait_us", "us",
                            sim::to_us(max_wait)});
        out_.sim.push_back({"memif.fairness_ratio", "ratio", fairness});
        out_.sim.push_back({"bench.gen_late_p99_us", "us", x.gen_late_p99_us});
        out_.sim.push_back({"bench.backlog_end", "count", x.backlog_end});
        out_.sim.push_back({"memif.heat_ping_pongs", "count",
                            static_cast<double>(x.heat_ping_pongs)});
        out_.sim.push_back(
            {"memif.hot_on_sram_frac", "ratio", x.hot_on_sram_frac});

        const std::int64_t delta = teardown_checks(rig, regions, out_.errors);
        out_.sim.push_back({"mem.frames_outstanding_delta", "frames",
                            static_cast<double>(delta)});
        out_.host.push_back({"sim.host_ns_per_event", "ns",
                             out_.measured_host_s * 1e9 /
                                 static_cast<double>(end_.events -
                                                     start_.events)});
        out_.host.push_back({"os.kernel_build_s", "s", rig.kernel_build_s});
        out_.host.push_back({"vm.mmap_s", "s", rig.mmap_s});
    }

    /**
     * The end-to-end metrics, in the order the benchmark prints them. A
     * failed operation counts as missing any latency limit: @p lat_us
     * should carry it as a latency no smaller than the window measured.
     */
    void
    e2e_metrics(std::uint64_t bytes, sim::Duration elapsed,
                std::vector<double> lat_us, sim::Duration cpu,
                double rate_kreq_s)
    {
        std::sort(lat_us.begin(), lat_us.end());
        const double tail = tail_pct(lat_us.size());
        const double mb = static_cast<double>(bytes) / 1e6;
        out_.sim.push_back(
            {"sim_gbps", "GB/s", sim::gb_per_sec(bytes, elapsed)});
        out_.sim.push_back({"lat_p50_us", "us", percentile(lat_us, 50.0)});
        out_.sim.push_back({"lat_p99_us", "us", percentile(lat_us, tail)});
        out_.sim.push_back({"cpu_us_per_mb", "us/MB",
                            mb > 0.0 ? sim::to_us(cpu) / mb : 0.0});
        out_.sim.push_back({"max_rate_kreq_s", "kreq/s", rate_kreq_s});
        out_.sim.push_back(
            {"fail_frac", "ratio",
             out_.attempted ? static_cast<double>(out_.failed) /
                                  static_cast<double>(out_.attempted)
                            : 0.0});
        out_.sim.push_back({"bench.lat_samples", "count",
                            static_cast<double>(lat_us.size())});
        out_.sim.push_back({"bench.lat_tail_pct", "percentile", tail});
    }

    sim::Rng rng_;
    Tracer &tracer_;
    double round_start_;
    Rig *rig_ = nullptr;
    Snapshot start_, end_;
    double check_host_s_ = 0.0;
    double start_check_s_ = 0.0;
    double end_check_s_ = 0.0;
    std::uint64_t digest_ = 0xcbf29ce484222325ull;  // FNV offset basis
    Round out_;
};

// ---------------------------------------------------------------------
// Closed loops: mig-small and rep-warm-bulk
// ---------------------------------------------------------------------

struct ClosedSpec {
    core::MovOp op;
    std::uint32_t window;  ///< requests kept outstanding
    /** Regions the requests rotate over: for migrations this many per
     *  size of the mix, for replications this many DDR/SRAM pairs. */
    std::uint32_t slots;
    std::uint32_t slot_pages;   ///< replication: pages per region
    std::vector<MixEntry> mix;  ///< request sizes in pages
    /** Mean of the seeded exponential think time the app spends after
     *  each retrieved completion (keeps requests from arriving in
     *  lockstep, so latencies are not quantised to the cost model). */
    sim::Duration think_mean;
    std::uint32_t warmup_ops;
    std::uint32_t measured_ops;
    os::KernelConfig kc;
};

/**
 * A single-threaded app keeping spec.window requests outstanding: each
 * retrieved completion is checked and, after a short think time,
 * replaced by a request on a randomly drawn idle region. Migrations
 * ping-pong a whole region between DDR and SRAM; replications copy the
 * first n pages of a DDR region into its SRAM partner, whose old bytes
 * are poisoned first so a missed copy cannot pass the check.
 */
class ClosedLoop : RoundBase {
  public:
    ClosedLoop(const ClosedSpec &spec, std::uint64_t seed, Tracer &tracer,
               double round_start)
        : RoundBase(seed, tracer, round_start), spec_(spec)
    {
    }

    Round
    run()
    {
        Rig rig(spec_.kc, core::MemifConfig::strided(), tracer_);
        rig_ = &rig;
        setup();
        const std::uint32_t total = spec_.warmup_ops + spec_.measured_ops;
        ops_.assign(total, Op{});
        sim::Task app = run_app();
        if (!run_to_completion(rig, app))
            out_.errors.push_back("request stream did not finish");
        finish();
        rig_ = nullptr;
        return std::move(out_);
    }

  private:
    struct Slot {
        vm::VAddr src = 0;
        vm::VAddr dst = 0;
        std::uint32_t pages = 0;
        bool on_fast = false;
        bool busy = false;
        std::vector<std::uint8_t> expect;
    };

    struct Op {
        OpTiming t;
        std::uint32_t slot = 0;
        std::uint32_t pages = 0;
        OpState state = kUnsent;
    };

    bool migrate() const { return spec_.op == core::MovOp::kMigrate; }

    void
    setup()
    {
        Rig &rig = *rig_;
        os::Kernel &k = *rig.kernel;
        if (migrate()) {
            for (const MixEntry &m : spec_.mix)
                for (std::uint32_t i = 0; i < spec_.slots; ++i)
                    slots_.emplace_back().pages = m.pages;
        } else {
            slots_.resize(spec_.slots);
            for (Slot &s : slots_) s.pages = spec_.slot_pages;
        }
        for (Slot &s : slots_) {
            const std::uint64_t bytes = std::uint64_t{s.pages} * kPage;
            s.src = rig.mmap(*rig.owner, bytes, k.slow_node());
            if (!migrate()) s.dst = rig.mmap(*rig.owner, bytes, k.fast_node());
            s.expect = pattern(rng_.next(), bytes);
            MEMIF_ASSERT(rig.owner->as().write(s.src, s.expect.data(), bytes),
                         "pattern fill failed");
        }
    }

    sim::Task
    submit_next()
    {
        Rig &rig = *rig_;
        core::MemifUser &user = *rig.users[0];
        const std::uint32_t id = submitted_++;
        if (id == spec_.warmup_ops) start_measuring();
        const std::uint32_t n = draw(rng_, spec_.mix);
        const std::uint32_t si = pick_idle(rng_, slots_, [&](const Slot &c) {
            return !migrate() || c.pages == n;
        });
        MEMIF_ASSERT(si != ~0u, "no idle region of %u pages", n);
        Slot &s = slots_[si];
        digest_ = fnv(digest_, &si, sizeof si);
        digest_ = fnv(digest_, &n, sizeof n);
        s.busy = true;
        Op &op = ops_[id];
        op.slot = si;
        op.pages = n;
        op.state = kOutstanding;
        ++out_.attempted;

        const std::uint32_t idx = user.alloc_request();
        MEMIF_ASSERT(idx != core::kNoRequest, "request slots exhausted");
        core::MovReq &req = user.request(idx);
        req.op = spec_.op;
        req.src_base = s.src;
        req.num_pages = n;
        req.user_tag = id;
        if (migrate()) {
            req.dst_node =
                s.on_fast ? rig.kernel->slow_node() : rig.kernel->fast_node();
        } else {
            req.dst_base = s.dst;
            checking([&] {
                const std::vector<std::uint8_t> poison(n * kPage, 0xA5);
                MEMIF_ASSERT(rig.owner->as().write(s.dst, poison.data(),
                                                   poison.size()),
                             "poison failed");
            });
        }
        op.t.call = rig.kernel->eq().now();
        co_await user.submit(idx);
        op.t.returned = rig.kernel->eq().now();
    }

    void
    complete(std::uint32_t idx)
    {
        Rig &rig = *rig_;
        core::MemifUser &user = *rig.users[0];
        core::MovReq &req = user.request(idx);
        const auto id = static_cast<std::uint32_t>(req.user_tag);
        if (id >= ops_.size() || ops_[id].state != kOutstanding) {
            out_.errors.push_back("completion for op " + std::to_string(id) +
                                  " that is not outstanding");
            user.free_request(idx);
            return;
        }
        Op &op = ops_[id];
        op.t.submit_time = req.submit_time;
        op.t.complete_time = req.complete_time;
        op.t.retrieved = rig.kernel->eq().now();
        const bool ok = req.load_status() == core::MovStatus::kDone;
        user.free_request(idx);
        Slot &s = slots_[op.slot];
        s.busy = false;
        op.state = ok ? kDone : kFailed;
        if (!ok) ++out_.failed;
        if (ok && migrate()) s.on_fast = !s.on_fast;

        checking([&] {
            vm::AddressSpace &as = rig.owner->as();
            const std::uint64_t bytes = std::uint64_t{op.pages} * kPage;
            if (migrate()) {
                const mem::NodeId node = s.on_fast ? rig.kernel->fast_node()
                                                   : rig.kernel->slow_node();
                if (!verify_bytes(as, s.src, s.expect.data(), bytes) ||
                    frac_on_node(rig, as, s.src, s.pages, node) != 1.0)
                    out_.errors.push_back("migration op " +
                                          std::to_string(id) +
                                          " left wrong bytes or placement");
            } else if (ok && !verify_bytes(as, s.dst, s.expect.data(), bytes)) {
                out_.errors.push_back("replication op " + std::to_string(id) +
                                      " delivered wrong bytes");
            }
        });
    }

    sim::Task
    run_app()
    {
        Rig &rig = *rig_;
        core::MemifUser &user = *rig.users[0];
        const auto total = static_cast<std::uint32_t>(ops_.size());
        for (std::uint32_t w = 0; w < spec_.window; ++w)
            co_await submit_next();
        std::uint32_t retrieved = 0;
        while (retrieved < total) {
            const std::uint32_t idx = user.retrieve_completed();
            if (idx == core::kNoRequest) {
                co_await user.poll();
                continue;
            }
            complete(idx);
            ++retrieved;
            const auto think = static_cast<sim::Duration>(
                exponential(rng_, static_cast<double>(spec_.think_mean)));
            co_await sim::Delay{rig.kernel->eq(), think};
            if (submitted_ < total) co_await submit_next();
        }
        stop_measuring();
    }

    void
    finish()
    {
        std::vector<double> lat;
        std::uint64_t bytes = 0;
        std::vector<OpTiming> measured;
        const sim::Duration elapsed = end_.now - start_.now;
        for (std::uint32_t id = 0; id < ops_.size(); ++id) {
            const Op &op = ops_[id];
            if (op.state != kDone && op.state != kFailed) {
                out_.errors.push_back("op " + std::to_string(id) +
                                      " never completed");
                continue;
            }
            if (id < spec_.warmup_ops) continue;
            measured.push_back(op.t);
            trace_op(tracer_, id, op.t);
            if (op.state == kFailed) {
                lat.push_back(sim::to_us(elapsed));
                continue;
            }
            lat.push_back(sim::to_us(op.t.retrieved - op.t.call));
            bytes += std::uint64_t{op.pages} * kPage;
        }
        const std::uint64_t ops = spec_.measured_ops;
        e2e_metrics(bytes, elapsed, std::move(lat),
                    end_.cpu.total - start_.cpu.total,
                    static_cast<double>(ops) * 1e6 /
                        static_cast<double>(elapsed));
        Regions regions;
        for (const Slot &s : slots_) {
            regions.emplace_back(rig_->owner, s.src);
            if (s.dst) regions.emplace_back(rig_->owner, s.dst);
        }
        finish_round(ops, measured,
                     Extras{.heat_ping_pongs = rig_->dev->heat_ping_pongs()},
                     regions);
    }

    ClosedSpec spec_;
    std::vector<Slot> slots_;
    std::vector<Op> ops_;
    std::uint32_t submitted_ = 0;
};

ClosedSpec
mig_small_spec()
{
    ClosedSpec s;
    s.op = core::MovOp::kMigrate;
    s.window = 8;
    s.slots = 32;
    s.slot_pages = 0;
    s.mix = {{1, 70}, {2, 15}, {3, 10}, {4, 5}};
    s.think_mean = sim::microseconds(1);
    s.warmup_ops = 10000;
    s.measured_ops = 150000;
    s.kc.single_driver_core = true;
    return s;
}

ClosedSpec
rep_warm_bulk_spec()
{
    ClosedSpec s;
    s.op = core::MovOp::kReplicate;
    s.window = 4;
    s.slots = 8;
    s.slot_pages = 64;
    s.mix = {{64, 70}, {48, 10}, {32, 10}, {16, 10}};
    s.think_mean = sim::microseconds(1);
    s.warmup_ops = 2000;
    s.measured_ops = 30000;
    return s;
}

// ---------------------------------------------------------------------
// tenants-tiered: open loop, four tenants, rate ladder
// ---------------------------------------------------------------------

/** What one tenant of tenants-tiered submits. */
enum class Kind : std::uint8_t { kMigrate, kFlat, kTile, kChain };

struct TenantSpec {
    Kind kind;
    std::uint32_t weight;  ///< WRR weight, also its share of the rate
    /** Regions it rotates over; at most the default per-tenant in-flight
     *  quota (32), so overload queues in the generator, not in refusals. */
    std::uint32_t slots;
    std::uint32_t pages;  ///< pages per request (tiles: dst buffer)
};

/** Index = ASID. The owner (ASID 0) submits the tiles, because the C
 *  API's memif_mov_strided() acts as the device's owning process. */
const TenantSpec kTenants[] = {
    {Kind::kTile, 1, 16, 8},
    {Kind::kMigrate, 4, 32, 4},
    {Kind::kFlat, 2, 16, 16},
    {Kind::kChain, 1, 16, 32},
};
constexpr std::uint32_t kWeightSum = 8;

/** Tile geometry: 64 rows of 512 B cut from a DDR matrix whose rows are
 *  3072 B apart (so some rows straddle a page), packed into SRAM. */
constexpr std::uint32_t kMatrixRows = 512;
constexpr std::uint32_t kMatrixPitch = 3072;
constexpr std::uint32_t kTileRows = 64;
constexpr std::uint32_t kTileRowBytes = 512;

/**
 * The open-loop rate ladder. Steps run in order, each with its own
 * seeded Poisson arrivals, and each drains before the next starts; past
 * the reference step the ladder stops after the first step that misses
 * the limit. Rates are aggregate kreq/s, split across tenants by
 * weight. The steps are dense where this commit crosses the limit
 * (about 17 kreq/s) and reach well past its saturation knee (about
 * 23 kreq/s), so a faster device still finds its limit on the ladder.
 */
const double kLadder[] = {8,  12, 14, 15, 16, 17, 18, 19, 20, 21,
                          22, 23, 24, 26, 28, 30, 33, 36, 40};
/** The ladder step (index into kLadder, 16 kreq/s) whose throughput,
 *  CPU cost and latencies are the workload's sim_gbps, cpu_us_per_mb
 *  and lat_*: a loaded regime, where most requests queue, so the
 *  median is not pinned to one request type's unloaded service time. */
constexpr std::size_t kReferenceStep = 4;
/** Arrivals expected per step; the reference step gets more, so its
 *  p99 rests on many samples. */
constexpr double kArrivalsPerStep = 16000;
constexpr double kArrivalsReference = 96000;
/** Warm-up step (not measured): rate and expected arrivals. */
constexpr double kWarmupRate = 4;
constexpr double kArrivalsWarmup = 2000;
/**
 * The p99 a step must meet to count as sustained (virtual us): 4x the
 * light-load p99 (about 0.5 ms at 4 kreq/s, set by the chained SRAM-far
 * migrations and the strided tiles). This commit crosses it at about
 * three quarters of its saturation knee, where p99 still climbs steadily
 * with load and is measurable to a few percent; right at the knee p99
 * swings by milliseconds from seed to seed, so a limit there would make
 * the reported rate noise.
 */
constexpr double kLatencyLimitUs = 2000;
/** A step's backlog counts as growing when more arrivals are still
 *  outstanding at the end of its arrival window than this many times
 *  the rate x limit product. */
constexpr double kBacklogFactor = 2.0;

class TenantsTiered : RoundBase {
  public:
    TenantsTiered(std::uint64_t seed, Tracer &tracer, double round_start)
        : RoundBase(seed, tracer, round_start)
    {
    }

    Round
    run()
    {
        os::KernelConfig kc;
        kc.far_bytes = 64ull << 20;
        Rig rig(kc, core::MemifConfig::strided(), tracer_);
        rig_ = &rig;
        setup();
        schedule();
        sim::Task app = run_app();
        if (!run_to_completion(rig, app))
            out_.errors.push_back("open loop did not finish");
        finish();
        drain_ = sim::Task{};
        core::MemifClose(fd_);
        core::ResetDeviceFiles();
        rig_ = nullptr;
        return std::move(out_);
    }

  private:
    struct Slot {
        vm::VAddr src = 0;
        vm::VAddr dst = 0;
        bool busy = false;
        bool moved = false;  ///< migrate: on SRAM; chain: on the far node
        std::uint32_t op = 0;
        std::uint32_t tile_row = 0;
        std::uint32_t tile_col = 0;
        std::vector<std::uint8_t> expect;
    };

    struct Tenant {
        explicit Tenant(sim::EventQueue &eq) : freed(eq) {}
        TenantSpec spec{};
        std::vector<Slot> slots;
        /** Completion key (migration src / replication dst) -> slot. */
        std::map<vm::VAddr, std::uint32_t> by_key;
        sim::SimEvent freed;
    };

    struct Op {
        std::uint32_t tenant = 0;
        std::uint32_t step = 0;
        std::uint32_t slot = 0;
        sim::Duration offset = 0;  ///< due time relative to step start
        sim::SimTime due = 0;
        OpTiming t;
        OpState state = kUnsent;
    };

    struct Step {
        double rate = 0;  ///< kreq/s
        sim::Duration length = 0;
        /** Op ids per tenant, in due order. */
        std::vector<std::vector<std::uint32_t>> arrivals;
        std::uint32_t ops = 0;
        std::uint32_t left = 0;
        /** Arrivals not yet retrieved when the step's last one was due. */
        std::uint32_t backlog_end = 0;
        bool ran = false;
        double p50 = 0, p99 = 0;
        bool meets = false;
    };

    std::uint64_t
    request_bytes(const Tenant &ten) const
    {
        return ten.spec.kind == Kind::kTile
                   ? std::uint64_t{kTileRows} * kTileRowBytes
                   : std::uint64_t{ten.spec.pages} * kPage;
    }

    void
    setup()
    {
        Rig &rig = *rig_;
        os::Kernel &k = *rig.kernel;
        rig.dev->set_tenant_weight(0, kTenants[0].weight);
        for (std::uint32_t t = 1; t < std::size(kTenants); ++t)
            rig.add_tenant(kTenants[t].weight);
        core::RegisterDeviceFile("/dev/memif0", *rig.dev);
        fd_ = core::MemifOpen("/dev/memif0");
        MEMIF_ASSERT(fd_ >= 0, "MemifOpen failed");

        const std::uint64_t matrix_bytes =
            std::uint64_t{kMatrixRows} * kMatrixPitch;
        matrix_ = rig.mmap(*rig.owner, matrix_bytes, k.slow_node());
        matrix_expect_ = pattern(rng_.next(), matrix_bytes);
        MEMIF_ASSERT(rig.owner->as().write(matrix_, matrix_expect_.data(),
                                           matrix_bytes),
                     "matrix fill failed");

        for (std::uint32_t t = 0; t < std::size(kTenants); ++t) {
            auto ten = std::make_unique<Tenant>(k.eq());
            ten->spec = kTenants[t];
            os::Process &proc = *rig.procs[t];
            const std::uint64_t bytes = std::uint64_t{ten->spec.pages} * kPage;
            ten->slots.resize(ten->spec.slots);
            for (std::uint32_t i = 0; i < ten->spec.slots; ++i) {
                Slot &s = ten->slots[i];
                switch (ten->spec.kind) {
                  case Kind::kTile:
                    s.dst = rig.mmap(proc, bytes, k.fast_node());
                    ten->by_key[s.dst] = i;
                    break;
                  case Kind::kMigrate:
                    s.src = rig.mmap(proc, bytes, k.slow_node());
                    ten->by_key[s.src] = i;
                    break;
                  case Kind::kChain:
                    s.src = rig.mmap(proc, bytes, k.fast_node());
                    ten->by_key[s.src] = i;
                    break;
                  case Kind::kFlat:
                    s.src = rig.mmap(proc, bytes, k.slow_node());
                    s.dst = rig.mmap(proc, bytes, k.fast_node());
                    ten->by_key[s.dst] = i;
                    break;
                }
                if (s.src) {
                    s.expect = pattern(rng_.next(), bytes);
                    MEMIF_ASSERT(proc.as().write(s.src, s.expect.data(),
                                                 bytes),
                                 "pattern fill failed");
                }
            }
            tenants_.push_back(std::move(ten));
        }
    }

    /** Draw every step's Poisson arrivals up front: the stream depends
     *  on the seed alone, never on how the device behaves. */
    void
    schedule()
    {
        std::vector<double> rates = {kWarmupRate};
        rates.insert(rates.end(), std::begin(kLadder), std::end(kLadder));
        for (std::uint32_t si = 0; si < rates.size(); ++si) {
            Step st;
            st.rate = rates[si];
            const double arrivals = si == 0 ? kArrivalsWarmup
                                    : si == kReferenceStep + 1
                                        ? kArrivalsReference
                                        : kArrivalsPerStep;
            st.length = static_cast<sim::Duration>(arrivals /
                                                   (st.rate * 1e3) * 1e9);
            st.arrivals.resize(tenants_.size());
            for (std::uint32_t t = 0; t < tenants_.size(); ++t) {
                const double mean_gap_ns =
                    1e9 / (st.rate * 1e3) * kWeightSum /
                    tenants_[t]->spec.weight;
                double at = 0.0;
                for (;;) {
                    at += exponential(rng_, mean_gap_ns);
                    if (at >= static_cast<double>(st.length)) break;
                    Op op;
                    op.tenant = t;
                    op.step = si;
                    op.offset = static_cast<sim::Duration>(at);
                    st.arrivals[t].push_back(
                        static_cast<std::uint32_t>(ops_.size()));
                    ops_.push_back(op);
                    digest_ = fnv(digest_, &op.offset, sizeof op.offset);
                }
                st.ops += static_cast<std::uint32_t>(st.arrivals[t].size());
            }
            st.left = st.ops;
            steps_.push_back(std::move(st));
        }
    }

    void
    poison(os::Process &proc, vm::VAddr va, std::uint64_t bytes)
    {
        checking([&] {
            const std::vector<std::uint8_t> junk(bytes, 0x5A);
            MEMIF_ASSERT(proc.as().write(va, junk.data(), bytes),
                         "poison failed");
        });
    }

    sim::Task
    submit(std::uint32_t id)
    {
        Rig &rig = *rig_;
        os::Kernel &k = *rig.kernel;
        Op &op = ops_[id];
        Tenant &ten = *tenants_[op.tenant];
        Slot &s = ten.slots[op.slot];
        os::Process &proc = *rig.procs[op.tenant];
        s.busy = true;
        s.op = id;
        op.state = kOutstanding;
        ++out_.attempted;
        if (ten.spec.kind == Kind::kTile) {
            s.tile_row = static_cast<std::uint32_t>(
                rng_.next_below(kMatrixRows - kTileRows + 1));
            s.tile_col = static_cast<std::uint32_t>(
                rng_.next_below((kMatrixPitch - kTileRowBytes) / 64 + 1) * 64);
            digest_ = fnv(digest_, &s.tile_row, sizeof s.tile_row);
            digest_ = fnv(digest_, &s.tile_col, sizeof s.tile_col);
            poison(proc, s.dst, request_bytes(ten));
            op.t.call = k.eq().now();
            int rc = 0;
            core::mov_req *req = nullptr;
            co_await core::memif_mov_strided(
                fd_, s.dst,
                matrix_ + std::uint64_t{s.tile_row} * kMatrixPitch +
                    s.tile_col,
                kTileRowBytes, kTileRows, kMatrixPitch, kTileRowBytes, &rc,
                &req);
            if (req == nullptr)
                out_.errors.push_back("memif_mov_strided allocated nothing");
        } else {
            core::MemifUser &user = *rig.users[op.tenant];
            const std::uint32_t idx = user.alloc_request();
            MEMIF_ASSERT(idx != core::kNoRequest, "request slots exhausted");
            core::MovReq &req = user.request(idx);
            // Slots are shared with the tile tenant's strided requests:
            // populate every field, the 2D geometry included.
            req.rows = 0;
            req.row_bytes = 0;
            req.src_pitch = 0;
            req.dst_pitch = 0;
            req.gather_list = 0;
            req.src_base = s.src;
            req.num_pages = ten.spec.pages;
            req.user_tag = id;
            if (ten.spec.kind == Kind::kFlat) {
                req.op = core::MovOp::kReplicate;
                req.dst_base = s.dst;
                poison(proc, s.dst, request_bytes(ten));
            } else {
                req.op = core::MovOp::kMigrate;
                if (ten.spec.kind == Kind::kMigrate)
                    req.dst_node = s.moved ? k.slow_node() : k.fast_node();
                else
                    req.dst_node = s.moved ? k.fast_node() : k.far_node();
            }
            op.t.call = k.eq().now();
            co_await user.submit(idx);
        }
        op.t.returned = k.eq().now();
    }

    /** One tenant's arrivals of step @p si: each is submitted when due,
     *  or as soon as one of the tenant's regions frees up. */
    sim::Task
    generate(std::uint32_t t, std::uint32_t si, sim::SimTime start)
    {
        sim::EventQueue &eq = rig_->kernel->eq();
        Tenant &ten = *tenants_[t];
        for (const std::uint32_t id : steps_[si].arrivals[t]) {
            Op &op = ops_[id];
            op.due = start + op.offset;
            if (eq.now() < op.due) co_await sim::Delay{eq, op.due - eq.now()};
            std::uint32_t slot;
            while ((slot = pick_idle(rng_, ten.slots, [](const Slot &) {
                        return true;
                    })) == ~0u) {
                ten.freed.reset();
                co_await ten.freed.wait();
            }
            op.slot = slot;
            co_await submit(id);
        }
    }

    void
    complete(core::mov_req &req)
    {
        Rig &rig = *rig_;
        const std::uint32_t t = req.asid;
        Tenant *ten = t < tenants_.size() ? tenants_[t].get() : nullptr;
        Slot *s = nullptr;
        if (ten != nullptr) {
            const bool by_src = ten->spec.kind == Kind::kMigrate ||
                                ten->spec.kind == Kind::kChain;
            const auto it = ten->by_key.find(by_src ? req.src_base
                                                    : req.dst_base);
            if (it != ten->by_key.end()) s = &ten->slots[it->second];
        }
        if (s == nullptr || !s->busy) {
            out_.errors.push_back("completion for no outstanding request");
            core::FreeRequest(fd_, &req);
            return;
        }
        const std::uint32_t id = s->op;
        Op &op = ops_[id];
        if (op.state != kOutstanding ||
            (ten->spec.kind != Kind::kTile && req.user_tag != id))
            out_.errors.push_back("completion does not match op " +
                                  std::to_string(id));
        const bool ok = req.load_status() == core::MovStatus::kDone;
        op.t.submit_time = req.submit_time;
        op.t.complete_time = req.complete_time;
        op.t.retrieved = rig.kernel->eq().now();
        op.state = ok ? kDone : kFailed;
        if (!ok) {
            ++out_.failed;
            ++failures_[{t, static_cast<std::uint32_t>(req.error)}];
        }
        core::FreeRequest(fd_, &req);
        if (ok && (ten->spec.kind == Kind::kMigrate ||
                   ten->spec.kind == Kind::kChain))
            s->moved = !s->moved;
        checking([&] {
            if (!verify(*ten, *s, *rig.procs[t], ok))
                out_.errors.push_back("op " + std::to_string(id) +
                                      " delivered wrong bytes or placement");
        });
        s->busy = false;
        ten->freed.set();
        if (--steps_[op.step].left == 0) step_done_->set();
    }

    bool
    verify(const Tenant &ten, const Slot &s, os::Process &proc, bool ok)
    {
        Rig &rig = *rig_;
        os::Kernel &k = *rig.kernel;
        switch (ten.spec.kind) {
          case Kind::kMigrate:
          case Kind::kChain: {
            const bool mig = ten.spec.kind == Kind::kMigrate;
            const mem::NodeId home = mig ? k.slow_node() : k.fast_node();
            const mem::NodeId away = mig ? k.fast_node() : k.far_node();
            return verify_bytes(proc.as(), s.src, s.expect.data(),
                                request_bytes(ten)) &&
                   frac_on_node(rig, proc.as(), s.src, ten.spec.pages,
                                s.moved ? away : home) == 1.0;
          }
          case Kind::kFlat:
            return !ok || verify_bytes(proc.as(), s.dst, s.expect.data(),
                                       request_bytes(ten));
          case Kind::kTile:
            for (std::uint32_t r = 0; ok && r < kTileRows; ++r)
                if (!verify_bytes(
                        proc.as(), s.dst + std::uint64_t{r} * kTileRowBytes,
                        matrix_expect_.data() +
                            std::uint64_t{s.tile_row + r} * kMatrixPitch +
                            s.tile_col,
                        kTileRowBytes))
                    return false;
            return true;
        }
        return false;
    }

    sim::Task
    drain()
    {
        for (;;) {
            core::mov_req *req = core::RetrieveCompleted(fd_);
            if (req == nullptr) {
                co_await core::Poll(fd_);
                continue;
            }
            complete(*req);
        }
    }

    /** Latencies (from due time) of one step's ops, sorted; a failed op
     *  counts as the step length. */
    std::vector<double>
    step_latencies(const Step &st) const
    {
        std::vector<double> lat;
        for (const auto &ids : st.arrivals)
            for (const std::uint32_t id : ids) {
                const Op &op = ops_[id];
                lat.push_back(op.state == kDone
                                  ? sim::to_us(op.t.retrieved - op.due)
                                  : sim::to_us(st.length));
            }
        std::sort(lat.begin(), lat.end());
        return lat;
    }

    /** Score a drained step: it meets the limit when its p99 does and
     *  its backlog has not grown (kBacklogFactor). */
    bool
    evaluate(Step &st)
    {
        const std::vector<double> lat = step_latencies(st);
        st.p50 = percentile(lat, 50.0);
        st.p99 = percentile(lat, tail_pct(lat.size()));
        const double backlog_cap =
            kBacklogFactor * st.rate * 1e3 * kLatencyLimitUs * 1e-6;
        st.meets = st.p99 <= kLatencyLimitUs &&
                   static_cast<double>(st.backlog_end) <= backlog_cap;
        return st.meets;
    }

    sim::Task
    controller()
    {
        sim::EventQueue &eq = rig_->kernel->eq();
        for (std::uint32_t si = 0; si < steps_.size(); ++si) {
            if (si == 1) start_measuring();
            if (si == kReferenceStep + 1) ref_start_ = rig_->snap();
            Step &st = steps_[si];
            const sim::SimTime start = eq.now();
            std::vector<sim::Task> gens;
            for (std::uint32_t t = 0; t < tenants_.size(); ++t)
                gens.push_back(generate(t, si, start));
            co_await sim::Delay{eq, st.length};
            st.backlog_end = st.left;
            for (sim::Task &g : gens) co_await g;
            while (st.left > 0) {
                step_done_->reset();
                co_await step_done_->wait();
            }
            st.ran = true;
            if (si == kReferenceStep + 1) ref_end_ = rig_->snap();
            if (si > 0 && !evaluate(st) && si > kReferenceStep) break;
        }
        stop_measuring();
    }

    /** The app: the completion drain runs beside the ladder controller
     *  and is left parked in Poll() once the last step has drained. */
    sim::Task
    run_app()
    {
        step_done_ = std::make_unique<sim::SimEvent>(rig_->kernel->eq());
        drain_ = drain();
        co_await controller();
    }

    void
    finish()
    {
        for (std::uint32_t id = 0; id < ops_.size(); ++id)
            if (steps_[ops_[id].step].ran && ops_[id].state != kDone &&
                ops_[id].state != kFailed) {
                out_.errors.push_back("op " + std::to_string(id) +
                                      " never completed");
                break;
            }

        // The highest rate below the first step that misses the limit;
        // when that step misses on p99, the crossing is interpolated
        // linearly between the two steps, so the figure does not jump by
        // whole ladder steps from seed to seed.
        double max_rate = 0.0;
        bool crossed = false;
        for (std::uint32_t si = 1; si < steps_.size() && steps_[si].ran;
             ++si) {
            const Step &st = steps_[si];
            char line[160];
            std::snprintf(line, sizeof line,
                          "step %2u  offered %5.1f kreq/s  ops %5u  p50 %9.2f "
                          "us  p99 %9.2f us  backlog_end %4u  %s",
                          si, st.rate, st.ops, st.p50, st.p99, st.backlog_end,
                          st.meets ? "meets" : "misses");
            out_.notes.push_back(line);
            if (crossed) continue;
            if (st.meets) {
                max_rate = st.rate;
                continue;
            }
            crossed = true;
            const Step &prev = steps_[si - 1];
            if (si > 1 && st.p99 > kLatencyLimitUs)
                max_rate = prev.rate + (st.rate - prev.rate) *
                                           (kLatencyLimitUs - prev.p99) /
                                           (st.p99 - prev.p99);
        }
        for (const auto &[key, count] : failures_)
            out_.notes.push_back("tenant " + std::to_string(key.first) +
                                 ": " + std::to_string(count) +
                                 " ops failed with MovError " +
                                 std::to_string(key.second));

        std::uint64_t ref_bytes = 0;
        std::vector<OpTiming> measured;
        std::vector<double> late;
        for (std::uint32_t id = 0; id < ops_.size(); ++id) {
            const Op &op = ops_[id];
            if (op.step == 0 || !steps_[op.step].ran) continue;
            measured.push_back(op.t);
            OpTiming span = op.t;
            span.call = op.due;
            trace_op(tracer_, id, span);
            if (op.step != kReferenceStep + 1) continue;
            late.push_back(sim::to_us(op.t.call - op.due));
            if (op.state == kDone)
                ref_bytes += request_bytes(*tenants_[op.tenant]);
        }
        std::sort(late.begin(), late.end());

        // Throughput, CPU and latency at the fixed reference rate; the
        // sustainable rate from the ladder; failures over every measured
        // step that ran. Per-layer counters cover the whole ladder.
        const Step &ref = steps_[kReferenceStep + 1];
        e2e_metrics(ref_bytes, ref_end_.now - ref_start_.now,
                    step_latencies(ref),
                    ref_end_.cpu.total - ref_start_.cpu.total, max_rate);

        Regions regions = {{rig_->owner, matrix_}};
        for (std::uint32_t t = 0; t < tenants_.size(); ++t)
            for (const Slot &s : tenants_[t]->slots) {
                if (s.src) regions.emplace_back(rig_->procs[t], s.src);
                if (s.dst) regions.emplace_back(rig_->procs[t], s.dst);
            }
        finish_round(measured.size(), measured,
                     Extras{.gen_late_p99_us =
                                percentile(late, tail_pct(late.size())),
                            .backlog_end =
                                static_cast<double>(ref.backlog_end),
                            .heat_ping_pongs = rig_->dev->heat_ping_pongs()},
                     regions);
    }

    int fd_ = -1;
    vm::VAddr matrix_ = 0;
    std::vector<std::uint8_t> matrix_expect_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    std::vector<Op> ops_;
    std::vector<Step> steps_;
    std::unique_ptr<sim::SimEvent> step_done_;
    sim::Task drain_;
    /** Failed ops per (tenant, MovError). */
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> failures_;
    Snapshot ref_start_, ref_end_;  ///< around the reference step
};

// ---------------------------------------------------------------------
// managed-oversub: app access loop over a managed, oversubscribed set
// ---------------------------------------------------------------------

/** Working set: four managed regions, 2x the 1536-page SRAM in all. */
constexpr std::uint32_t kManagedRegions = 4;
constexpr std::uint32_t kManagedRegionPages = 768;
constexpr std::uint32_t kWorkingSetPages =
    kManagedRegions * kManagedRegionPages;
/** The hot window (a sixth of SRAM, small enough that the default
 *  500 us scan epoch sees every hot bucket touched) jumps to a seeded,
 *  bucket-aligned offset at every phase. */
constexpr std::uint32_t kHotPages = 256;
constexpr std::uint32_t kHotAlign = 8;
/** One operation: this many page accesses, priced together. */
constexpr std::uint32_t kBatchPages = 16;
/** Share of accesses to the hot window (sequential sweep); the rest go
 *  to uniformly drawn pages of the whole set. */
constexpr double kHotShare = 0.95;
constexpr double kWriteShare = 0.25;
constexpr std::uint32_t kPhaseOps = 3000;
constexpr std::uint32_t kWarmupPhases = 2;
constexpr std::uint32_t kMeasuredPhases = 80;
/** CPU-side cost of one page access besides the memory transfer: a
 *  seeded draw from [100, 200] ns (cache and TLB effects), so batch
 *  latencies are not quantised to sums of node constants. */
constexpr sim::Duration kAccessOverheadMin = 100;
constexpr sim::Duration kAccessOverheadSpan = 101;

/**
 * A closed-loop app: one thread issues access batches back to back
 * with Process::touch, each page priced by the node its frame lives on
 * at that moment (bandwidth share + node latency + a per-access
 * overhead, as bench_managed and bench_tiered price accesses). All
 * pages start on DDR; the device's heat scanner and migration daemon
 * (the preset's default knobs, aging policy) decide what moves where.
 */
class ManagedOversub : RoundBase {
  public:
    ManagedOversub(std::uint64_t seed, Tracer &tracer, double round_start)
        : RoundBase(seed, tracer, round_start)
    {
    }

    Round
    run()
    {
        os::KernelConfig kc;
        kc.far_bytes = 64ull << 20;
        Rig rig(kc, core::MemifConfig::strided(), tracer_);
        rig_ = &rig;
        os::Kernel &k = *rig.kernel;
        for (std::uint32_t r = 0; r < kManagedRegions; ++r) {
            const std::uint64_t bytes =
                std::uint64_t{kManagedRegionPages} * kPage;
            bases_[r] = rig.mmap(*rig.owner, bytes, k.slow_node());
            expect_[r] = pattern(rng_.next(), bytes);
            MEMIF_ASSERT(rig.owner->as().write(bases_[r], expect_[r].data(),
                                               bytes),
                         "pattern fill failed");
            MEMIF_ASSERT(rig.dev->manage_region(bases_[r]),
                         "manage_region failed");
        }
        sim::Task app = run_app();
        if (!run_to_completion(rig, app))
            out_.errors.push_back("access loop did not finish");
        finish();
        rig_ = nullptr;
        return std::move(out_);
    }

  private:
    vm::VAddr
    va(std::uint32_t page) const
    {
        return bases_[page / kManagedRegionPages] +
               std::uint64_t{page % kManagedRegionPages} * kPage;
    }

    mem::NodeId
    node_of(std::uint32_t page) const
    {
        const vm::Vma *vma = rig_->owner->as().find_vma(va(page));
        const vm::Pte pte = vma->pte(page % kManagedRegionPages);
        return pte.present && !pte.migration
                   ? rig_->kernel->phys().node_of(pte.pfn)
                   : rig_->kernel->slow_node();
    }

    sim::Duration
    access_cost(std::uint32_t page)
    {
        const mem::MemoryNode &node = rig_->kernel->phys().node(node_of(page));
        return static_cast<sim::Duration>(static_cast<double>(kPage) * 1e9 /
                                          node.bandwidth_bps()) +
               static_cast<sim::Duration>(node.latency_ns()) +
               kAccessOverheadMin + rng_.next_below(kAccessOverheadSpan);
    }

    /** Check every byte of the working set. */
    void
    verify_all(const char *when)
    {
        checking([&] {
            for (std::uint32_t r = 0; r < kManagedRegions; ++r)
                if (!verify_bytes(rig_->owner->as(), bases_[r],
                                  expect_[r].data(), expect_[r].size()))
                    out_.errors.push_back("managed region " +
                                          std::to_string(r) + " corrupted " +
                                          when);
        });
    }

    sim::Task
    run_app()
    {
        Rig &rig = *rig_;
        sim::EventQueue &eq = rig.kernel->eq();
        std::uint32_t cursor = 0;
        for (std::uint32_t ph = 0; ph < kWarmupPhases + kMeasuredPhases;
             ++ph) {
            verify_all("at a phase boundary");
            if (ph == kWarmupPhases) start_measuring();
            hot_start_ = static_cast<std::uint32_t>(rng_.next_below(
                             (kWorkingSetPages - kHotPages) / kHotAlign + 1)) *
                         kHotAlign;
            digest_ = fnv(digest_, &hot_start_, sizeof hot_start_);
            const bool measured = ph >= kWarmupPhases;
            for (std::uint32_t op = 0; op < kPhaseOps; ++op) {
                const sim::SimTime t0 = eq.now();
                sim::Duration cost = 0;
                bool ok = true;
                for (std::uint32_t i = 0; i < kBatchPages; ++i) {
                    const std::uint32_t page =
                        rng_.next_double() < kHotShare
                            ? hot_start_ + cursor++ % kHotPages
                            : static_cast<std::uint32_t>(
                                  rng_.next_below(kWorkingSetPages));
                    const bool write = rng_.next_double() < kWriteShare;
                    os::TouchOutcome t;
                    co_await rig.owner->touch(va(page), write, &t);
                    ok = ok && t.result != vm::AccessResult::kNotPresent;
                    cost += access_cost(page);
                }
                co_await sim::Delay{eq, cost};
                if (!measured) continue;
                ++out_.attempted;
                if (!ok) {
                    ++out_.failed;
                    lat_.push_back(-1.0);  // replaced by the window length
                    continue;
                }
                lat_.push_back(sim::to_us(eq.now() - t0));
                bytes_ += std::uint64_t{kBatchPages} * kPage;
            }
        }
        stop_measuring();
        std::uint32_t on_sram = 0;
        for (std::uint32_t i = 0; i < kHotPages; ++i)
            on_sram += node_of(hot_start_ + i) == rig.kernel->fast_node();
        hot_on_sram_ = static_cast<double>(on_sram) / kHotPages;
        ping_pongs_ = rig.dev->heat_ping_pongs();
    }

    void
    finish()
    {
        Rig &rig = *rig_;
        verify_all("at the end");
        const sim::Duration elapsed = end_.now - start_.now;
        for (double &l : lat_)
            if (l < 0.0) l = sim::to_us(elapsed);
        const std::uint64_t ops = out_.attempted;
        e2e_metrics(bytes_, elapsed, std::move(lat_),
                    end_.cpu.total - start_.cpu.total,
                    static_cast<double>(ops) * 1e6 /
                        static_cast<double>(elapsed));

        // Hand the regions back; every daemon mov issued must have ended
        // exactly once, as a completion or a drop.
        for (const vm::VAddr base : bases_) rig.dev->unmanage_region(base);
        rig.kernel->run();
        verify_all("after unmanaging");
        const core::DeviceStats &st = rig.dev->stats();
        if (st.promotions_issued + st.demotions_issued !=
            st.promotions_completed + st.demotions_completed +
                st.daemon_movs_dropped)
            out_.errors.push_back("daemon movs issued != completed + dropped");
        Regions regions;
        for (const vm::VAddr base : bases_)
            regions.emplace_back(rig.owner, base);
        // No memif requests of the app's own: the stage spans are empty.
        finish_round(ops, {},
                     Extras{.hot_on_sram_frac = hot_on_sram_,
                            .heat_ping_pongs = ping_pongs_},
                     regions);
    }

    std::array<vm::VAddr, kManagedRegions> bases_{};
    std::array<std::vector<std::uint8_t>, kManagedRegions> expect_;
    std::uint32_t hot_start_ = 0;
    std::vector<double> lat_;
    std::uint64_t bytes_ = 0;
    double hot_on_sram_ = 0.0;
    std::uint64_t ping_pongs_ = 0;
};

}  // namespace

const std::vector<std::string> &
workload_names()
{
    static const std::vector<std::string> names = {
        "mig-small", "rep-warm-bulk", "tenants-tiered", "managed-oversub"};
    return names;
}

Round
run_round(const std::string &workload, std::uint64_t seed, Tracer &tracer,
          double round_start)
{
    if (workload == "mig-small")
        return ClosedLoop(mig_small_spec(), seed, tracer, round_start).run();
    if (workload == "rep-warm-bulk")
        return ClosedLoop(rep_warm_bulk_spec(), seed, tracer, round_start)
            .run();
    if (workload == "tenants-tiered")
        return TenantsTiered(seed, tracer, round_start).run();
    if (workload == "managed-oversub")
        return ManagedOversub(seed, tracer, round_start).run();
    Round r;
    r.errors.push_back("unknown workload " + workload);
    return r;
}

}  // namespace memifbench
