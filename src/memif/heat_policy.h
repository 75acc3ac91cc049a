/**
 * @file
 * Heat accounting and the placement policy for memif-managed mode.
 *
 * The scan kthread folds one sample per page bucket per epoch (from
 * the young/dirty bits it test-and-rearms); the migration daemon asks
 * for a verdict per bucket. Everything here is pure arithmetic over
 * those samples — no simulator, device or clock dependencies — so the
 * decay math and hysteresis bands are unit-testable in isolation.
 *
 * The policy is an LRU-ish aging vector per bucket. Each epoch shifts
 * the vector right and ORs the new sample into the MSB, so recency
 * dominates and one idle epoch halves a bucket's score. Promote at or
 * above aging_promote_threshold, demote strictly below
 * kAgingDemoteThreshold; the gap between the two thresholds is the
 * hysteresis band.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace memif::core {

/** Pages aggregated into one heat bucket (the migration unit). */
inline constexpr std::uint32_t kHeatBucketPages = 8;

/** Tuning knobs for RegionHeat (copied from MemifConfig at attach). */
struct HeatConfig {
    /** Promote when the aging vector reaches this value. */
    std::uint8_t aging_promote_threshold = 0x60;
};

/** What the daemon should do with one bucket this epoch. */
enum class HeatVerdict : std::uint8_t { kStay = 0, kPromote, kDemote };

/** Which tier a bucket currently lives on (tiered_memory mode). */
enum class HeatTier : std::uint8_t { kFast = 0, kSlow = 1, kFar = 2 };

/** Three-way placement verdict (tiered_memory mode): hot buckets
 *  belong on the fast tier, warm buckets stop at DDR, and cold buckets
 *  sink to the far tier only while DDR is under pressure — with room
 *  on DDR they stop there too (see classify_tiered). */
enum class TierVerdict : std::uint8_t { kStay = 0, kToFast, kToSlow, kToFar };

/** Per-bucket decayed heat state. */
struct HeatBucket {
    std::uint8_t age = 0;          ///< recency vector (MSB newest)
    bool hot = false;              ///< hysteresis state (classification)
    /** Third-band hysteresis state. Maintained by every fold() but only
     *  consulted by classify_tiered(), so two-tier callers are
     *  unaffected. Mutually exclusive with hot. */
    bool cold = false;
    /** Starts saturated so the first flip (initial classification)
     *  never counts as a ping-pong. */
    std::uint32_t epochs_since_flip = ~0u;
    std::uint64_t accessed_epochs = 0;  ///< epochs with any access seen
    std::uint64_t written_epochs = 0;   ///< epochs with any dirty page
};

/**
 * Heat state for one managed region: a HeatBucket per
 * kHeatBucketPages run of pages, plus the fold/classify machinery.
 */
class RegionHeat {
  public:
    RegionHeat(const HeatConfig &config, std::uint64_t num_pages);

    std::uint64_t num_buckets() const { return buckets_.size(); }
    std::uint64_t bucket_of(std::uint64_t page_idx) const
    {
        return page_idx / kHeatBucketPages;
    }
    /** First page index of @p bucket. */
    std::uint64_t first_page(std::uint64_t bucket) const
    {
        return bucket * kHeatBucketPages;
    }
    /** Number of pages in @p bucket (the last one may be short). */
    std::uint32_t pages_in(std::uint64_t bucket) const;

    /**
     * Fold one epoch's sample for @p bucket: of @p sampled examined
     * pages, @p accessed had their young bit cleared and @p written
     * were dirty. Call exactly once per bucket per epoch — the decay
     * step is applied here, so unsampled epochs must still fold zeros.
     */
    void fold(std::uint64_t bucket, std::uint32_t accessed,
              std::uint32_t written, std::uint32_t sampled);

    /**
     * The policy's desired action for @p bucket given where it lives
     * now. Pure read of the hysteresis state updated by fold().
     */
    HeatVerdict classify(std::uint64_t bucket, bool resident_fast) const;

    /**
     * Three-way verdict for @p bucket given the tier it lives on now
     * (tiered_memory mode). Same hysteresis reads as classify() for
     * the hot band, plus the cold band maintained by fold(): hot
     * buckets head for the fast tier and the warm remainder rests on
     * DDR. Cold buckets are demoted to the far tier only under DDR
     * pressure (@p slow_has_room false): while DDR has room a cold
     * bucket leaves SRAM for DDR and stays wherever it already sits
     * below SRAM, so a moving hot window never pays the far tier's
     * latency to re-touch pages it just left. A warm bucket on far
     * returns to DDR either way.
     *
     * The device computes @p slow_has_room once per scan epoch and
     * hands the same bit to both callers — the scanner's park test and
     * the daemon's issue pass. Gating only the daemon would leave the
     * scanner seeing work the daemon never does, so it would never park.
     */
    TierVerdict classify_tiered(std::uint64_t bucket, HeatTier resident,
                                bool slow_has_room) const;

    const HeatBucket &bucket(std::uint64_t i) const { return buckets_[i]; }

    /**
     * Forget a cold bucket's stale sub-threshold heat on wake from
     * dormancy. The sleep gap is unobserved, so heat frozen at entry
     * must not combine with fresh post-wake touches — a rotation that
     * happens to coincide with successive probe epochs would otherwise
     * accumulate across sleeps and cross the promote threshold. Hot
     * buckets keep their state: their dormancy already required a
     * fully-touched bucket, and active folds demote them promptly if
     * the access pattern died while they slept.
     */
    void reset_cold(std::uint64_t bucket)
    {
        HeatBucket &b = buckets_[bucket];
        if (!b.hot) b.age = 0;
    }

    /** Hot-state flips within four epochs of the previous flip
     *  (stability metric). */
    std::uint64_t ping_pongs() const { return ping_pongs_; }

    /**
     * Histogram of the current heat distribution: bucket counts in 8
     * score octiles (score = age/255).
     */
    std::vector<std::uint64_t> histogram() const;

  private:
    HeatConfig config_;
    std::uint64_t num_pages_ = 0;
    std::vector<HeatBucket> buckets_;
    std::uint64_t ping_pongs_ = 0;
};

}  // namespace memif::core
