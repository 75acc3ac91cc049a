/**
 * @file
 * Randomized-but-replayable workloads for the differential model
 * checker (tests/model): a plain-data description of everything one
 * checker run does to a memif instance — regions to map, requests to
 * submit (single and batched), CPU touches that may race in-flight
 * migrations, and barriers that drain to quiescence.
 *
 * The description is deliberately dumb data: the generator fills it
 * from a seed, the reference model interprets it against plain byte
 * arrays, the differential runner replays it through the real stack,
 * and the minimizer shrinks it by dropping ops. Tests can also build
 * workloads by hand (pinned regression cases).
 *
 * Disjointness invariant: between two barriers, the pages any two
 * *valid* generated requests operate on (sources and destinations)
 * never overlap, except that replications may share read-only source
 * pages. Migrations preserve content and replications have exclusive
 * destinations, so the final bytes of every region are independent of
 * completion order — which is what lets one sequential reference model
 * predict the outcome of every differently-scheduled preset.
 * CPU touches are exempt (they never modify content, only PTE state)
 * and are the designated way to race an in-flight migration.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "memif/mov_req.h"
#include "vm/page_size.h"

namespace memif::check {

/** One mapped region of the workload's address space. */
struct RegionSpec {
    std::uint32_t pages = 0;
    vm::PageSize psize = vm::PageSize::k4K;
    /** Seed byte of the initial fill pattern (pattern + i * 13). */
    std::uint8_t pattern = 0;
    /** Owning tenant. Under a multi_tenant preset the differential
     *  runner maps each region into its tenant's process and submits
     *  its requests through that tenant's MemifUser handle; presets
     *  with the lever off map everything into the owner process and
     *  ignore this field. The generator keeps every request (source
     *  AND destination) within one tenant's regions, so tenancy never
     *  changes which requests are valid. */
    std::uint32_t tenant = 0;

    bool operator==(const RegionSpec &) const = default;
};

/** Deliberate malformations the generator can emit (the expected
 *  validation error is derived from the kind). */
enum class Malform : std::uint8_t {
    kNone = 0,
    kUnmappedSrc,   ///< src outside every vma -> kBadAddress
    kZeroPages,     ///< num_pages == 0 -> kBadRequest
    kTooManyPages,  ///< num_pages > PaRAM -> kBadRequest
    kBadNode,       ///< unknown dst_node -> kBadNode
    kOverlap,       ///< replication src/dst overlap -> kBadRequest
    kZeroRowBytes,  ///< strided with row_bytes == 0 -> kBadRequest
    kPitchUnderRow, ///< strided dst_pitch < row_bytes -> kBadRequest
};

/** One mov_req to submit. Page indices are region-relative. */
struct MovSpec {
    core::MovOp op = core::MovOp::kMigrate;
    std::uint32_t src_region = 0;
    std::uint32_t src_page = 0;
    std::uint32_t num_pages = 1;
    /** Replication destination (region + start page in ITS page size). */
    std::uint32_t dst_region = 0;
    std::uint32_t dst_page = 0;
    /** Migration destination: fast node (true) or slow node. */
    bool to_fast = true;
    /** Tiered presets only: route a slow-bound migration to the far
     *  node instead (SRAM-resident pages then take the chained
     *  SRAM→DDR→far path). Derived from the page run, never from a
     *  fresh RNG draw, so every existing seed's workload stays
     *  byte-identical; two-node presets ignore the flag. */
    bool to_far = false;
    Malform malform = Malform::kNone;
    /** @name Strided-replication geometry (strided knob).
     *  rows != 0 marks the spec strided: num_pages stays 0 and the
     *  request replicates `rows` rows of `row_bytes`, read `src_pitch`
     *  apart starting at src_region page src_page and written
     *  `dst_pitch` apart at dst_region page dst_page. Fields default
     *  to zero so pre-strided specs (and their operator==) are
     *  untouched. */
    ///@{
    std::uint32_t rows = 0;
    std::uint32_t row_bytes = 0;
    std::uint64_t src_pitch = 0;
    std::uint64_t dst_pitch = 0;
    ///@}

    bool operator==(const MovSpec &) const = default;
};

/** One simulated CPU access. Touches never change memory contents —
 *  only PTE state — so they are free to race in-flight migrations. */
struct TouchSpec {
    std::uint32_t region = 0;
    std::uint32_t page = 0;
    bool write = false;

    bool operator==(const TouchSpec &) const = default;
};

enum class OpKind : std::uint8_t {
    kMov,      ///< submit movs[0] via MemifUser::submit()
    kMovMany,  ///< submit all movs in one submit_many() batch
    kTouch,    ///< one CPU access (may race an in-flight migration)
    kBarrier,  ///< drain every outstanding completion, then verify memory
};

struct WorkloadOp {
    OpKind kind = OpKind::kBarrier;
    std::vector<MovSpec> movs;
    TouchSpec touch;
    /** Simulated CPU the op runs from (selects the MemifUser handle,
     *  i.e. the submission ring / contention-model slot). */
    std::uint32_t cpu = 0;
    /** Virtual-time pause before the op (microseconds). */
    std::uint32_t delay_us = 0;

    bool operator==(const WorkloadOp &) const = default;
};

struct Workload {
    std::uint64_t seed = 0;
    /** Tenants the regions are partitioned over (>= 1). Only
     *  multi_tenant presets instantiate more than one address space. */
    std::uint32_t num_tenants = 1;
    /** Invalidation-storm knob: the generator chases every mov with a
     *  burst of zero-delay touches aimed at the mov's own pages, so
     *  young/dirty PTE CASes fire the xlate-invalidate hook while the
     *  request is still in flight — gang-cache entries get shot down
     *  between Prep and the next move over the same pages. Stresses
     *  gang-cache invalidation under the xlate_cache presets; pure
     *  PTE-state noise, so the reference model is unaffected beyond the
     *  usual may-race marking of migrations. */
    bool invalidation_storm = false;
    /** Heat-churn knob: the generator hammers one small per-seed "hot
     *  window" of pages with repeated touches throughout the run, so
     *  the managed preset's scanner sees the same buckets accessed
     *  epoch after epoch and the migration daemon actually promotes
     *  (and, once the churn moves on, demotes) them concurrently with
     *  the workload's own requests. Touches are content-inert and
     *  exempt from the disjointness invariant, so the reference
     *  model's byte predictions are unaffected. */
    bool heat_churn = false;
    /** Strided knob: the generator mixes in 2D replications with
     *  randomized pitch/rows geometries (claimed page runs keep them
     *  pairwise page-disjoint) plus strided malformations. Only
     *  meaningful under presets with the strided_dma lever on: with
     *  the lever off a valid strided request fails validation, which
     *  the reference model would mispredict. RNG draws happen only
     *  when the knob is set, so every existing seed's workload stays
     *  byte-identical without it. */
    bool strided = false;
    std::vector<RegionSpec> regions;
    std::vector<WorkloadOp> ops;

    bool operator==(const Workload &) const = default;
};

/** Simulated submission CPUs a workload uses (MemifUser handles). */
inline constexpr std::uint32_t kWorkloadCpus = 4;

/**
 * Generate the seeded randomized workload for @p seed: mixed 4 KB /
 * 64 KB regions partitioned over 2-4 tenants, migrations bouncing
 * between nodes, replications with exclusive destinations, batched
 * submits, malformed requests, racing touches, and periodic barriers.
 * Every op stays within one tenant's regions. Deterministic: the same
 * seed always yields the same workload, on any host.
 *
 * With @p invalidation_storm set, every generated mov is chased by a
 * burst of same-instant touches on its own pages (see
 * Workload::invalidation_storm). With @p heat_churn set, every op is
 * followed by a burst of touches on a fixed per-seed hot window (see
 * Workload::heat_churn). With @p strided set, 2D replications and
 * strided malformations join the mix (see Workload::strided).
 */
Workload generate_workload(std::uint64_t seed,
                           bool invalidation_storm = false,
                           bool heat_churn = false,
                           bool strided = false);

/** Copy of @p w with ops [begin, begin+count) removed (minimizer). */
Workload drop_ops(const Workload &w, std::size_t begin, std::size_t count);

}  // namespace memif::check
