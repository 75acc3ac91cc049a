#include "check/workload.h"

#include <algorithm>

#include "dma/descriptor.h"
#include "sim/random.h"

namespace memif::check {
namespace {

/** Page-claim ledger enforcing the disjointness invariant: between
 *  barriers, no two valid requests may operate on the same page. */
class Claims {
  public:
    explicit Claims(const std::vector<RegionSpec> &regions)
    {
        for (const RegionSpec &r : regions)
            claimed_.emplace_back(r.pages, false);
    }

    bool
    free_run(std::uint32_t region, std::uint32_t first,
             std::uint32_t n) const
    {
        const auto &c = claimed_[region];
        if (first + n > c.size()) return false;
        for (std::uint32_t i = 0; i < n; ++i)
            if (c[first + i]) return false;
        return true;
    }

    void
    claim(std::uint32_t region, std::uint32_t first, std::uint32_t n)
    {
        for (std::uint32_t i = 0; i < n; ++i)
            claimed_[region][first + i] = true;
    }

    void
    release(std::uint32_t region, std::uint32_t first, std::uint32_t n)
    {
        for (std::uint32_t i = 0; i < n; ++i)
            claimed_[region][first + i] = false;
    }

    void
    release_all()
    {
        for (auto &c : claimed_) std::fill(c.begin(), c.end(), false);
    }

  private:
    std::vector<std::vector<bool>> claimed_;
};

}  // namespace

Workload
generate_workload(std::uint64_t seed, bool invalidation_storm,
                  bool heat_churn, bool strided)
{
    sim::Rng rng(seed);
    Workload w;
    w.seed = seed;
    w.invalidation_storm = invalidation_storm;
    w.heat_churn = heat_churn;
    w.strided = strided;

    // Mixed-granularity regions (≈ 832 KB total — comfortably inside
    // the 6 MB fast node, so clean-run migrations essentially always
    // have room, yet concurrent bursts can still brush the cap).
    w.regions = {
        RegionSpec{32, vm::PageSize::k4K,
                   static_cast<std::uint8_t>(1 + rng.next_below(250))},
        RegionSpec{8, vm::PageSize::k64K,
                   static_cast<std::uint8_t>(1 + rng.next_below(250))},
        RegionSpec{32, vm::PageSize::k4K,
                   static_cast<std::uint8_t>(1 + rng.next_below(250))},
        RegionSpec{16, vm::PageSize::k4K,
                   static_cast<std::uint8_t>(1 + rng.next_below(250))},
    };

    // Partition the regions over 2-4 tenants (round-robin, so every
    // tenant owns at least one region). Ops are generated per-tenant
    // below; only multi_tenant presets act on the partition.
    w.num_tenants = 2 + static_cast<std::uint32_t>(rng.next_below(3));
    for (std::uint32_t r = 0; r < w.regions.size(); ++r)
        w.regions[r].tenant = r % w.num_tenants;

    // Heat-churn hot window: one small page run the whole run keeps
    // re-touching (see Workload::heat_churn). Drawn only when the
    // knob is on so existing seeds stay byte-identical without it.
    std::uint32_t hot_region = 0, hot_base = 0, hot_span = 0;
    if (heat_churn) {
        hot_region = static_cast<std::uint32_t>(
            rng.next_below(w.regions.size()));
        hot_span = std::min<std::uint32_t>(8, w.regions[hot_region].pages);
        hot_base = static_cast<std::uint32_t>(
            rng.next_below(w.regions[hot_region].pages - hot_span + 1));
    }

    Claims claims(w.regions);

    // Region indices owned by `tenant` (never empty: round-robin).
    auto regions_of = [&](std::uint32_t tenant) {
        std::vector<std::uint32_t> owned;
        for (std::uint32_t r = 0; r < w.regions.size(); ++r)
            if (w.regions[r].tenant == tenant) owned.push_back(r);
        return owned;
    };

    // Pick an unclaimed run of up to `want` pages anywhere in `region`.
    auto find_free = [&](std::uint32_t region, std::uint32_t want,
                         std::uint32_t *first, std::uint32_t *n) -> bool {
        const RegionSpec &r = w.regions[region];
        for (std::uint32_t len = std::min(want, r.pages); len >= 1;
             --len) {
            for (int attempt = 0; attempt < 16; ++attempt) {
                const std::uint32_t start = static_cast<std::uint32_t>(
                    rng.next_below(r.pages - len + 1));
                if (claims.free_run(region, start, len)) {
                    *first = start;
                    *n = len;
                    return true;
                }
            }
        }
        return false;
    };

    // One valid migration or replication with freshly claimed pages
    // inside @p tenant's regions, or nullopt-equivalent (returns false)
    // when everything is claimed.
    auto make_valid_mov = [&](std::uint32_t tenant, MovSpec *out) -> bool {
        const std::vector<std::uint32_t> owned = regions_of(tenant);
        const bool replicate = rng.next_below(3) == 0;
        const std::uint32_t rs =
            owned[rng.next_below(owned.size())];
        const std::uint32_t want =
            w.regions[rs].psize == vm::PageSize::k64K
                ? 1 + static_cast<std::uint32_t>(rng.next_below(4))
                : 1 + static_cast<std::uint32_t>(rng.next_below(8));
        std::uint32_t sfirst = 0, sn = 0;
        if (!find_free(rs, want, &sfirst, &sn)) return false;
        if (!replicate) {
            claims.claim(rs, sfirst, sn);
            const bool to_fast = rng.next_below(2) == 0;
            // Far-tier routing is derived, not drawn: a fresh RNG call
            // here would shift every draw after it and change the
            // workload all existing presets replay.
            const bool to_far = !to_fast && ((sfirst ^ sn) & 3) == 0;
            *out = MovSpec{core::MovOp::kMigrate, rs, sfirst, sn,
                           0,  0,
                           to_fast, to_far, Malform::kNone};
            return true;
        }
        // Replication: an exclusive destination run large enough for
        // sn source pages' worth of bytes, possibly at a different
        // granularity. Claim the source BEFORE searching so a
        // same-region destination cannot land on top of it (backtrack
        // on failure).
        claims.claim(rs, sfirst, sn);
        const std::uint64_t src_pb = vm::page_bytes(w.regions[rs].psize);
        const std::uint32_t rd =
            owned[rng.next_below(owned.size())];
        const std::uint64_t dst_pb = vm::page_bytes(w.regions[rd].psize);
        const std::uint64_t bytes = sn * src_pb;
        const std::uint32_t dst_pages = static_cast<std::uint32_t>(
            (bytes + dst_pb - 1) / dst_pb);
        // Keep the chunk count inside the PaRAM (fine-granularity
        // chunks: num_pages * src_pb / min(src_pb, dst_pb)).
        const std::uint64_t align = std::min(src_pb, dst_pb);
        std::uint32_t dfirst = 0, dn = 0;
        if (bytes / align > dma::DescriptorRam::kEntries ||
            !find_free(rd, dst_pages, &dfirst, &dn) || dn < dst_pages) {
            claims.release(rs, sfirst, sn);
            return false;
        }
        claims.claim(rd, dfirst, dst_pages);
        *out = MovSpec{core::MovOp::kReplicate, rs,    sfirst, sn,
                       rd,  dfirst, false,  false,  Malform::kNone};
        return true;
    };

    // Strided replication: randomized pitch/rows geometry over freshly
    // claimed page runs on both sides, so strided requests stay
    // pairwise page-disjoint from every other valid request (the
    // pitched envelopes — gaps included — live inside the claimed
    // runs). Geometry choices keep worst-case per-row splitting far
    // inside the PaRAM.
    auto make_valid_strided = [&](std::uint32_t tenant,
                                  MovSpec *out) -> bool {
        const std::vector<std::uint32_t> owned = regions_of(tenant);
        const std::uint32_t rs = owned[rng.next_below(owned.size())];
        const std::uint32_t rd = owned[rng.next_below(owned.size())];
        const std::uint64_t src_pb = vm::page_bytes(w.regions[rs].psize);
        const std::uint64_t dst_pb = vm::page_bytes(w.regions[rd].psize);
        const std::uint32_t rows =
            2 + static_cast<std::uint32_t>(rng.next_below(11));
        // row_bytes 16..768; pitch == row_bytes (degenerate flat) is
        // reachable, as are pitched gaps of up to ~1 KB.
        const std::uint32_t row_bytes = static_cast<std::uint32_t>(
            16 * (1 + rng.next_below(48)));
        const std::uint64_t src_pitch =
            row_bytes + 8 * rng.next_below(128);
        const std::uint64_t dst_pitch =
            row_bytes + 8 * rng.next_below(128);
        const std::uint64_t src_extent =
            (std::uint64_t{rows} - 1) * src_pitch + row_bytes;
        const std::uint64_t dst_extent =
            (std::uint64_t{rows} - 1) * dst_pitch + row_bytes;
        const std::uint32_t sp = static_cast<std::uint32_t>(
            (src_extent + src_pb - 1) / src_pb);
        const std::uint32_t dp = static_cast<std::uint32_t>(
            (dst_extent + dst_pb - 1) / dst_pb);
        std::uint32_t sfirst = 0, sn = 0;
        if (!find_free(rs, sp, &sfirst, &sn) || sn < sp) return false;
        claims.claim(rs, sfirst, sp);
        std::uint32_t dfirst = 0, dn = 0;
        if (!find_free(rd, dp, &dfirst, &dn) || dn < dp) {
            claims.release(rs, sfirst, sp);
            return false;
        }
        claims.claim(rd, dfirst, dp);
        *out = MovSpec{core::MovOp::kReplicate,
                       rs,
                       sfirst,
                       0,
                       rd,
                       dfirst,
                       false,
                       false,
                       Malform::kNone,
                       rows,
                       row_bytes,
                       src_pitch,
                       dst_pitch};
        return true;
    };

    auto make_malformed_mov = [&](std::uint32_t tenant) -> MovSpec {
        const std::vector<std::uint32_t> owned = regions_of(tenant);
        MovSpec m;
        m.src_region = owned[rng.next_below(owned.size())];
        m.src_page = 0;
        m.num_pages = 1;
        // The strided malform kinds join the lottery only under the
        // knob, so knob-off draws keep their historical bound.
        switch (rng.next_below(strided ? 7 : 5)) {
            case 0: m.malform = Malform::kUnmappedSrc; break;
            case 1: m.malform = Malform::kZeroPages; break;
            case 2:
                m.malform = Malform::kTooManyPages;
                m.num_pages = dma::DescriptorRam::kEntries + 7;
                break;
            case 3: m.malform = Malform::kBadNode; break;
            case 4:
                m.malform = Malform::kOverlap;
                m.op = core::MovOp::kReplicate;
                m.dst_region = m.src_region;
                m.dst_page = m.src_page;
                break;
            case 5:
                m.malform = Malform::kZeroRowBytes;
                m.op = core::MovOp::kReplicate;
                m.num_pages = 0;
                m.dst_region = m.src_region;
                m.dst_page = 0;
                m.rows = 4;
                m.row_bytes = 0;
                m.src_pitch = 64;
                m.dst_pitch = 64;
                break;
            default:
                m.malform = Malform::kPitchUnderRow;
                m.op = core::MovOp::kReplicate;
                m.num_pages = 0;
                m.dst_region = m.src_region;
                m.dst_page = 0;
                m.rows = 4;
                m.row_bytes = 128;
                m.src_pitch = 128;
                m.dst_pitch = 64;
                break;
        }
        return m;
    };

    const std::size_t total_ops = 48 + rng.next_below(17);
    std::uint32_t since_barrier = 0;
    for (std::size_t i = 0; i < total_ops; ++i) {
        WorkloadOp op;
        op.cpu = static_cast<std::uint32_t>(rng.next_below(kWorkloadCpus));
        op.delay_us = static_cast<std::uint32_t>(rng.next_below(40));

        // The tenant this op acts as; a batch stays within one tenant
        // (one MemifUser handle submits the whole submit_many() call).
        const std::uint32_t tenant = static_cast<std::uint32_t>(
            rng.next_below(w.num_tenants));
        const std::uint64_t dice = rng.next_below(100);
        if (since_barrier >= 12 || dice < 8) {
            op.kind = OpKind::kBarrier;
            claims.release_all();
            since_barrier = 0;
        } else if (dice < 30) {
            op.kind = OpKind::kTouch;
            const std::uint32_t r = static_cast<std::uint32_t>(
                rng.next_below(w.regions.size()));
            op.touch = TouchSpec{
                r,
                static_cast<std::uint32_t>(
                    rng.next_below(w.regions[r].pages)),
                rng.next_below(2) == 1};
            ++since_barrier;
        } else if (dice < 45) {
            op.kind = OpKind::kMovMany;
            const std::uint32_t batch = 2 + static_cast<std::uint32_t>(
                                                rng.next_below(3));
            for (std::uint32_t b = 0; b < batch; ++b) {
                MovSpec m;
                // One in six batch slots is deliberately malformed so
                // mixed-outcome batches are routine.
                if (rng.next_below(6) == 0)
                    op.movs.push_back(make_malformed_mov(tenant));
                else if (strided && rng.next_below(4) == 0 &&
                         make_valid_strided(tenant, &m))
                    op.movs.push_back(m);
                else if (make_valid_mov(tenant, &m))
                    op.movs.push_back(m);
            }
            if (op.movs.empty()) {
                op.kind = OpKind::kBarrier;
                claims.release_all();
                since_barrier = 0;
            } else {
                ++since_barrier;
            }
        } else {
            op.kind = OpKind::kMov;
            MovSpec m;
            if (rng.next_below(10) == 0) {
                op.movs.push_back(make_malformed_mov(tenant));
                ++since_barrier;
            } else if (strided && rng.next_below(3) == 0 &&
                       make_valid_strided(tenant, &m)) {
                op.movs.push_back(m);
                ++since_barrier;
            } else if (make_valid_mov(tenant, &m)) {
                op.movs.push_back(m);
                ++since_barrier;
            } else {
                op.kind = OpKind::kBarrier;
                claims.release_all();
                since_barrier = 0;
            }
        }
        const OpKind placed_kind = op.kind;
        w.ops.push_back(std::move(op));
        // Invalidation storm: chase every valid mov with same-instant
        // touches on its own pages. Each touch young/dirty-CASes a PTE
        // the request translated, firing the xlate-invalidate hook
        // mid-flight. Touches are exempt from the disjointness
        // invariant, so this only perturbs PTE/cache state, never
        // final bytes.
        const WorkloadOp &placed = w.ops.back();
        if (invalidation_storm && (placed.kind == OpKind::kMov ||
                                   placed.kind == OpKind::kMovMany)) {
            std::vector<WorkloadOp> burst;
            for (const MovSpec &m : placed.movs) {
                // Strided specs have no page-run shape to aim at
                // (num_pages is zero); the storm skips them.
                if (m.malform != Malform::kNone || m.rows != 0) continue;
                const std::uint32_t hits =
                    1 + static_cast<std::uint32_t>(rng.next_below(3));
                for (std::uint32_t h = 0; h < hits; ++h) {
                    std::uint32_t region = m.src_region;
                    std::uint32_t base = m.src_page;
                    std::uint32_t span = m.num_pages;
                    if (m.op == core::MovOp::kReplicate &&
                        rng.next_below(2) == 0) {
                        // Destination side, at its own granularity.
                        const std::uint64_t bytes =
                            std::uint64_t{m.num_pages} *
                            vm::page_bytes(w.regions[m.src_region].psize);
                        const std::uint64_t dst_pb =
                            vm::page_bytes(w.regions[m.dst_region].psize);
                        region = m.dst_region;
                        base = m.dst_page;
                        span = static_cast<std::uint32_t>(
                            (bytes + dst_pb - 1) / dst_pb);
                    }
                    WorkloadOp t;
                    t.kind = OpKind::kTouch;
                    t.cpu = placed.cpu;
                    t.delay_us = 0;
                    t.touch = TouchSpec{
                        region,
                        std::min<std::uint32_t>(
                            base + static_cast<std::uint32_t>(
                                       rng.next_below(span)),
                            w.regions[region].pages - 1),
                        rng.next_below(2) == 1};
                    burst.push_back(std::move(t));
                }
            }
            for (WorkloadOp &t : burst) {
                w.ops.push_back(std::move(t));
                ++since_barrier;
            }
        }
        // Heat churn: after every non-barrier op, hammer the hot
        // window so its buckets stay hot across scan epochs and the
        // managed preset's daemon has something to promote while app
        // requests are in flight. Content-inert (touches only).
        if (heat_churn && placed_kind != OpKind::kBarrier) {
            const std::uint32_t hits =
                2 + static_cast<std::uint32_t>(rng.next_below(3));
            for (std::uint32_t h = 0; h < hits; ++h) {
                WorkloadOp t;
                t.kind = OpKind::kTouch;
                t.cpu = static_cast<std::uint32_t>(
                    rng.next_below(kWorkloadCpus));
                t.delay_us =
                    static_cast<std::uint32_t>(rng.next_below(3));
                t.touch = TouchSpec{
                    hot_region,
                    hot_base + static_cast<std::uint32_t>(
                                   rng.next_below(hot_span)),
                    rng.next_below(2) == 1};
                w.ops.push_back(std::move(t));
                ++since_barrier;
            }
        }
    }
    // Always end quiesced: the runner's invariant sweep assumes the
    // final op drained every outstanding request.
    w.ops.push_back(WorkloadOp{OpKind::kBarrier, {}, {}, 0, 0});
    return w;
}

Workload
drop_ops(const Workload &w, std::size_t begin, std::size_t count)
{
    Workload out;
    out.seed = w.seed;
    out.num_tenants = w.num_tenants;
    out.invalidation_storm = w.invalidation_storm;
    out.heat_churn = w.heat_churn;
    out.strided = w.strided;
    out.regions = w.regions;
    out.ops.reserve(w.ops.size());
    for (std::size_t i = 0; i < w.ops.size(); ++i)
        if (i < begin || i >= begin + count) out.ops.push_back(w.ops[i]);
    // Preserve the trailing quiesce barrier no matter what was cut.
    if (out.ops.empty() || out.ops.back().kind != OpKind::kBarrier)
        out.ops.push_back(WorkloadOp{OpKind::kBarrier, {}, {}, 0, 0});
    return out;
}

}  // namespace memif::check
