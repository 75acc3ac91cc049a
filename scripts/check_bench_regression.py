#!/usr/bin/env python3
"""Gate on the machine-readable bench artifacts (BENCH_*.json).

Checks that the optimisation levers actually pay off:

* Figure 8 sweep: at every 4 KB point with >= 16 pages/request, the
  memif-pip-4KB series must beat the paper-default memif-mig-4KB
  series by at least MIN_SPEEDUP.
* Figure 7 small-request streams: the moderated (completion-batching)
  configuration must beat pipelined on throughput by MIN_MOD_SPEEDUP
  per cell, and must cut the per-request completion tax
  (irqs/req + wakeups/req) to at most MAX_MOD_TAX_RATIO of
  pipelined's. On the same cells the strided() preset (every lever on,
  requests routed through the multi-tenant WRR) must reach
  MIN_STRIDED_VS_SCALED of scaled()'s GB/s with a completion tax at
  most MAX_STRIDED_EXTRA_TAX above scaled()'s.
* Submission scaling: on the repeated-region 256x4KB stream the
  scaled() levers (gang translation cache + bulk frame allocation +
  per-CPU rings) must beat moderated() by MIN_SCALED_SPEEDUP, the
  translation cache must serve at least MIN_XLATE_HIT_RATIO of the
  stream's pages, and 4 submitting CPUs over per-CPU rings must
  sustain at least MIN_RING_SCALING_4CPU times the 1-CPU deposit
  throughput.
* Multi-tenant fairness: at 16 equal-weight tenants under overload
  the max/min per-tenant throughput ratio must stay at most
  MAX_FAIRNESS_16, and the 4:1 weighted pair's observed bandwidth
  split must land inside [MIN_WEIGHTED_SPLIT, MAX_WEIGHTED_SPLIT].
* Managed mode: at 2x fast-node oversubscription the aging placement
  policy must reach at least MIN_MANAGED_VS_WORST of static-worst
  throughput and stay within MIN_MANAGED_VS_BEST of the static-best
  oracle on at least one access mix.
* Tiered memory: pipelined multi-hop eviction must beat sequential
  store-and-forward by MIN_TIERED_PIPELINE_SPEEDUP on every demotion
  burst of at least MIN_TIERED_BURST_PAGES pages, and the capacity
  sweep must degrade gracefully — monotone non-increasing GB/s with
  every step retaining at least MIN_TIERED_STEP_RETENTION of the
  previous point (no cliff at a tier boundary).
* Strided DMA: staging a pitched tile as one strided request must
  beat the per-row flat workaround by MIN_STRIDED_SPEEDUP at the
  STRIDED_TILE x STRIDED_TILE point, the double-buffered matmul must
  hide at least MIN_OVERLAP of its staging DMA behind compute, and
  every staging strategy must produce the identical data checksum.

Pure stdlib so it runs anywhere CI does.

Usage: check_bench_regression.py [dir-with-BENCH-json]   (default: .)
"""
import json
import os
import sys

MIN_SPEEDUP = 1.25
MIN_PAGES = 16

# Figure 7 stream cells: (cell name, minimum moderated/pipelined GB/s
# ratio).  The 4 KB stream is pure completion tax, so moderation buys
# more there than at 16 KB.  Both bounds hold with margin in quick
# mode (1.37x / 1.18x measured) and full mode (1.40x / 1.22x).
FIG7_CELLS = [("256x4KB", 1.30), ("64x16KB", 1.15)]
MAX_MOD_TAX_RATIO = 0.5
# strided() vs scaled() on the fig7 stream cells: the WRR layer must
# not hide the queue from the completion controller.  Measured
# 0.996x / 0.998x quick and 0.996x / 0.997x full with equal tax.  A
# controller blind to the WRR pending lists sits at 0.69x with 1.94 vs
# 0.06 (irq+wake)/req on 256x4KB in quick mode: the gap this gate
# keeps closed.
MIN_STRIDED_VS_SCALED = 0.95
MAX_STRIDED_EXTRA_TAX = 0.05
# Point x-coordinates written by bench_fig7_latency for stream series.
X_GBPS, X_IRQS, X_WAKES = 1, 2, 3

# Submission-path gates (bench_submission_scaling).  Measured: scaled
# 1.23x full / 1.21x quick, hit ratio 0.984 full / 0.938 quick, rings
# 4-CPU scaling 3.82x full / 3.40x quick — deterministic simulation,
# so the margins hold exactly.
MIN_SCALED_SPEEDUP = 1.20
MIN_XLATE_HIT_RATIO = 0.90
MIN_RING_SCALING_4CPU = 2.0

# Multi-tenant gates (bench_multitenant).  The WRR dispatcher must keep
# 16 equal-weight tenants within 2x of each other, and a 4:1 weight
# pair must split bandwidth roughly 4:1 while both still compete.
MAX_FAIRNESS_16 = 2.0
MIN_WEIGHTED_SPLIT = 3.0
MAX_WEIGHTED_SPLIT = 5.0

# Managed-mode gates (bench_managed).  The daemon starts from an
# all-on-DDR placement and must discover + move the hot set: at 2x
# oversubscription the daemon has to clearly beat leaving
# everything on DDR.  The static-best bound is looser because that
# oracle is strictly stronger than any sampler can be: it knows the
# hot set in advance (no discovery ramp), pays zero sampling tax, and
# packs leftover SRAM with cold pages the daemon deliberately never
# promotes.  Measured: managed reaches 0.77-0.91x of it at 2x;
# gate at 0.70 with margin.  Honoured in quick mode too
# (MEMIF_BENCH_QUICK only shrinks epochs, not the 2x row).
MANAGED_OVERSUB = 2.0
MIN_MANAGED_VS_WORST = 1.3
MIN_MANAGED_VS_BEST = 0.70
MANAGED_MIXES = ["stream", "data_intensive"]

# Three-tier managed gates (bench_managed, 2x oversubscription).  The
# daemon demotes cold pages to the far tier only under DDR pressure.
# fits-ddr runs the set on the default DDR, so its placement must match
# two-tier managed: measured 1.00x on both mixes (full and quick), gate
# at 0.95, and it must never demote to far.  squeezed-ddr runs on 24 MB
# of DDR with an idle region and a fresh DDR allocation every epoch:
# DDR must be seen under its watermark, cold pages must reach far, and
# every allocation must succeed.
MIN_TIERED_FITS_VS_TWO_TIER = 0.95

# Tiered-memory gates (bench_tiered).  Pipelined multi-hop eviction
# overlaps batch k+1's SRAM->DDR hop with batch k's DDR->far hop across
# the engine's TCs; measured 1.64x sequential store-and-forward at
# every burst size (full and quick mode) — deterministic simulation,
# gate at 1.3 with margin.  The capacity sweep crosses the SRAM and
# DDR boundaries; measured per-step retentions 0.66/0.75/0.23/0.39/0.76
# (the 0.23 step is the working set crossing into the RDMA-latency far
# tier while doubling — proportional to the tier cost ratio, not a
# cliff); gate monotone non-increasing with >= 0.20 retained per step.
MIN_TIERED_PIPELINE_SPEEDUP = 1.3
MIN_TIERED_BURST_PAGES = 256
MIN_TIERED_STEP_RETENTION = 0.20

# Strided-DMA gates (bench_tile_matmul).  One pitched request per
# 64x64 tile vs 64 flat rows x 2 tiles per step: measured 17.9x full /
# 17.7x quick staging throughput — deterministic simulation, gate at
# 1.3 with margin.  Double-buffered overlap measured 0.79 full / 0.68
# quick; gate at 0.5.  The checksum columns compare the bytes the
# compute actually consumed across staging strategies and must agree
# exactly (1.0 means match).
MIN_STRIDED_SPEEDUP = 1.3
STRIDED_TILE = 64
MIN_OVERLAP = 0.5


def fail(msg):
    print(f"check_bench_regression: FAIL: {msg}")
    return 1


def load_report(where, name):
    path = os.path.join(where, name)
    try:
        with open(path) as f:
            return json.load(f), None
    except OSError as e:
        return None, f"cannot read {path}: {e}"


def check_fig7_streams(where):
    """Moderated completion batching must pay off over pipelined."""
    report, err = load_report(where, "BENCH_fig7_latency.json")
    if err:
        return fail(err)
    series = report.get("series", {})

    for cell, min_speedup in FIG7_CELLS:
        pip = dict(series.get(f"stream-{cell}-pipelined", []))
        mod = dict(series.get(f"stream-{cell}-moderated", []))
        if X_GBPS not in pip or X_GBPS not in mod:
            return fail(f"stream-{cell} series missing from the artifact")
        speedup = mod[X_GBPS] / pip[X_GBPS]
        pip_tax = pip.get(X_IRQS, 0.0) + pip.get(X_WAKES, 0.0)
        mod_tax = mod.get(X_IRQS, 0.0) + mod.get(X_WAKES, 0.0)
        tax_ratio = mod_tax / pip_tax if pip_tax else 0.0
        print(f"  {cell}: moderated {mod[X_GBPS]:.2f} GB/s "
              f"vs pipelined {pip[X_GBPS]:.2f} GB/s = {speedup:.2f}x, "
              f"completion tax {mod_tax:.2f} vs {pip_tax:.2f} "
              f"(irq+wake)/req = {tax_ratio:.2f}x")
        if speedup < min_speedup:
            return fail(f"moderated speedup {speedup:.2f}x "
                        f"< {min_speedup}x on {cell}")
        if tax_ratio > MAX_MOD_TAX_RATIO:
            return fail(f"moderated completion tax {tax_ratio:.2f}x "
                        f"> {MAX_MOD_TAX_RATIO}x pipelined on {cell}")

        sca = dict(series.get(f"stream-{cell}-scaled", []))
        stri = dict(series.get(f"stream-{cell}-strided", []))
        if X_GBPS not in sca or X_GBPS not in stri:
            return fail(f"stream-{cell} scaled/strided series missing "
                        f"from the artifact")
        ratio = stri[X_GBPS] / sca[X_GBPS]
        sca_tax = sca.get(X_IRQS, 0.0) + sca.get(X_WAKES, 0.0)
        stri_tax = stri.get(X_IRQS, 0.0) + stri.get(X_WAKES, 0.0)
        print(f"  {cell}: strided {stri[X_GBPS]:.2f} GB/s "
              f"vs scaled {sca[X_GBPS]:.2f} GB/s = {ratio:.2f}x, "
              f"completion tax {stri_tax:.2f} vs {sca_tax:.2f} "
              f"(irq+wake)/req")
        if ratio < MIN_STRIDED_VS_SCALED:
            return fail(f"strided at {ratio:.2f}x "
                        f"< {MIN_STRIDED_VS_SCALED}x scaled on {cell}")
        if stri_tax > sca_tax + MAX_STRIDED_EXTRA_TAX:
            return fail(f"strided completion tax {stri_tax:.2f} "
                        f"> scaled {sca_tax:.2f} + {MAX_STRIDED_EXTRA_TAX} "
                        f"on {cell}")
    print(f"check_bench_regression: fig7 OK ({len(FIG7_CELLS)} cells)")
    return check_submission_scaling(where)


def check_submission_scaling(where):
    """The PR 4 submission-path levers must pay off."""
    report, err = load_report(where, "BENCH_submission_scaling.json")
    if err:
        return fail(err)
    series = report.get("series", {})

    mod = dict(series.get("stream-256x4KB-moderated", []))
    sca = dict(series.get("stream-256x4KB-scaled", []))
    if 1 not in mod or 1 not in sca:
        return fail("stream-256x4KB series missing from the artifact")
    speedup = sca[1] / mod[1]
    print(f"  256x4KB repeated-region: scaled {sca[1]:.2f} GB/s "
          f"vs moderated {mod[1]:.2f} GB/s = {speedup:.2f}x")
    if speedup < MIN_SCALED_SPEEDUP:
        return fail(f"scaled speedup {speedup:.2f}x "
                    f"< {MIN_SCALED_SPEEDUP}x on the 256x4KB stream")

    hits = dict(series.get("xlate-hit-ratio", []))
    if 1 not in hits:
        return fail("xlate-hit-ratio series missing from the artifact")
    print(f"  xlate hit ratio: {hits[1]:.3f}")
    if hits[1] < MIN_XLATE_HIT_RATIO:
        return fail(f"xlate hit ratio {hits[1]:.3f} "
                    f"< {MIN_XLATE_HIT_RATIO}")

    rings = dict(series.get("submit-scaling-rings", []))
    if 1 not in rings or 4 not in rings:
        return fail("submit-scaling-rings series missing from the artifact")
    print(f"  per-CPU ring deposit scaling at 4 CPUs: {rings[4]:.2f}x")
    if rings[4] < MIN_RING_SCALING_4CPU:
        return fail(f"4-CPU ring submit scaling {rings[4]:.2f}x "
                    f"< {MIN_RING_SCALING_4CPU}x")
    print("check_bench_regression: submission scaling OK")
    return check_multitenant(where)


def check_multitenant(where):
    """WRR fairness and the weighted bandwidth split must hold."""
    report, err = load_report(where, "BENCH_multitenant.json")
    if err:
        return fail(err)
    series = report.get("series", {})

    fairness = dict(series.get("fairness", []))
    if 16 not in fairness:
        return fail("fairness series missing the 16-tenant point")
    print(f"  16 equal-weight tenants: max/min throughput "
          f"{fairness[16]:.2f}x")
    if fairness[16] > MAX_FAIRNESS_16:
        return fail(f"16-tenant fairness ratio {fairness[16]:.2f} "
                    f"> {MAX_FAIRNESS_16}")

    split = dict(series.get("weighted_split", []))
    if 4 not in split:
        return fail("weighted_split series missing from the artifact")
    print(f"  4:1 weighted pair: observed split {split[4]:.2f}:1")
    if not MIN_WEIGHTED_SPLIT <= split[4] <= MAX_WEIGHTED_SPLIT:
        return fail(f"weighted split {split[4]:.2f} outside "
                    f"[{MIN_WEIGHTED_SPLIT}, {MAX_WEIGHTED_SPLIT}]")
    print("check_bench_regression: multitenant OK")
    return check_managed(where)


def check_managed(where):
    """The migration daemon must pay off at 2x oversubscription."""
    report, err = load_report(where, "BENCH_managed.json")
    if err:
        return fail(err)
    series = report.get("series", {})

    passed = False
    for mix in MANAGED_MIXES:
        vs_worst = dict(series.get(f"{mix}-managed-vs-worst", []))
        vs_best = dict(series.get(f"{mix}-managed-vs-best", []))
        if MANAGED_OVERSUB not in vs_worst or MANAGED_OVERSUB not in vs_best:
            return fail(f"{mix} managed series missing the "
                        f"{MANAGED_OVERSUB}x oversubscription point")
        w, b = vs_worst[MANAGED_OVERSUB], vs_best[MANAGED_OVERSUB]
        print(f"  {mix} @ {MANAGED_OVERSUB}x: managed {w:.2f}x "
              f"static-worst, {b:.2f}x static-best")
        if w >= MIN_MANAGED_VS_WORST and b >= MIN_MANAGED_VS_BEST:
            passed = True
    if not passed:
        return fail(f"no mix reached >= {MIN_MANAGED_VS_WORST}x "
                    f"static-worst and >= {MIN_MANAGED_VS_BEST}x "
                    f"static-best at {MANAGED_OVERSUB}x oversubscription")
    print("check_bench_regression: managed mode OK")
    return check_managed_tiered(where, series)


def check_managed_tiered(where, series):
    """The far verdict must wait for DDR pressure, and then act."""
    def point(name):
        return dict(series.get(name, [])).get(MANAGED_OVERSUB)

    for mix in MANAGED_MIXES:
        fits = f"{mix}-tiered-fits-ddr"
        squeezed = f"{mix}-tiered-squeezed-ddr"
        values = {
            "vs_two": point(f"{fits}-vs-two-tier"),
            "fits_to_far": point(f"{fits}-to-far"),
            "to_far": point(f"{squeezed}-to-far"),
            "pressure": point(f"{squeezed}-pressure-epochs"),
            "allocf": point(f"{squeezed}-alloc-failures"),
        }
        missing = [k for k, v in values.items() if v is None]
        if missing:
            return fail(f"{mix} three-tier managed series missing "
                        f"({', '.join(missing)}) at {MANAGED_OVERSUB}x")
        print(f"  {mix} three tiers: fits-ddr {values['vs_two']:.2f}x "
              f"two-tier, {int(values['fits_to_far'])} far demotions; "
              f"squeezed-ddr {int(values['pressure'])} pressured epochs, "
              f"{int(values['to_far'])} far demotions, "
              f"{int(values['allocf'])} failed allocations")
        if values["vs_two"] < MIN_TIERED_FITS_VS_TWO_TIER:
            return fail(f"{mix} fits-ddr {values['vs_two']:.2f}x < "
                        f"{MIN_TIERED_FITS_VS_TWO_TIER}x two-tier managed")
        if values["fits_to_far"] != 0:
            return fail(f"{mix} fits-ddr demoted to far with room on DDR")
        if values["pressure"] == 0:
            return fail(f"{mix} squeezed-ddr never saw DDR pressure")
        if values["to_far"] == 0:
            return fail(f"{mix} squeezed-ddr never demoted to far")
        if values["allocf"] != 0:
            return fail(f"{mix} squeezed-ddr: {int(values['allocf'])} "
                        f"allocations failed")
    print("check_bench_regression: managed three-tier OK")
    return check_tiered(where)


def check_tiered(where):
    """Pipelined chains must pay off; degradation must stay graceful."""
    report, err = load_report(where, "BENCH_tiered.json")
    if err:
        return fail(err)
    series = report.get("series", {})

    speedups = series.get("pipelined-speedup", [])
    checked = 0
    for pages, speedup in speedups:
        if pages < MIN_TIERED_BURST_PAGES:
            continue
        checked += 1
        print(f"  demotion burst {int(pages)} pages: pipelined "
              f"{speedup:.2f}x sequential")
        if speedup < MIN_TIERED_PIPELINE_SPEEDUP:
            return fail(f"pipelined eviction {speedup:.2f}x "
                        f"< {MIN_TIERED_PIPELINE_SPEEDUP}x sequential "
                        f"at {int(pages)} pages")
    if checked == 0:
        return fail(f"no demotion bursts at >= {MIN_TIERED_BURST_PAGES} "
                    f"pages in the artifact")

    sweep = sorted(series.get("capacity-sweep", []))
    if len(sweep) < 3:
        return fail("capacity-sweep series missing or too short")
    for (x0, y0), (x1, y1) in zip(sweep, sweep[1:]):
        retention = y1 / y0 if y0 else 0.0
        print(f"  capacity {x0:.1f}x -> {x1:.1f}x SRAM: "
              f"{y0:.2f} -> {y1:.2f} GB/s (retained {retention:.2f})")
        if y1 > y0:
            return fail(f"capacity sweep not monotone: {y1:.2f} GB/s at "
                        f"{x1:.1f}x > {y0:.2f} GB/s at {x0:.1f}x")
        if retention < MIN_TIERED_STEP_RETENTION:
            return fail(f"capacity cliff at {x1:.1f}x SRAM: retained "
                        f"{retention:.2f} < {MIN_TIERED_STEP_RETENTION}")
    print(f"check_bench_regression: tiered OK ({checked} bursts, "
          f"{len(sweep)} sweep points)")
    return check_tile_matmul(where)


def check_tile_matmul(where):
    """Strided tile staging must pay off and deliver exact bytes."""
    report, err = load_report(where, "BENCH_tile_matmul.json")
    if err:
        return fail(err)
    series = report.get("series", {})

    speedups = dict(series.get("strided-speedup", []))
    if STRIDED_TILE not in speedups:
        return fail(f"strided-speedup series missing the "
                    f"{STRIDED_TILE}x{STRIDED_TILE} tile point")
    print(f"  staging {STRIDED_TILE}x{STRIDED_TILE} tiles: strided "
          f"{speedups[STRIDED_TILE]:.2f}x per-row flat")
    if speedups[STRIDED_TILE] < MIN_STRIDED_SPEEDUP:
        return fail(f"strided staging {speedups[STRIDED_TILE]:.2f}x "
                    f"< {MIN_STRIDED_SPEEDUP}x per-row flat at "
                    f"{STRIDED_TILE}x{STRIDED_TILE} tiles")

    overlaps = dict(series.get("overlap", []))
    if STRIDED_TILE not in overlaps:
        return fail(f"overlap series missing the "
                    f"{STRIDED_TILE}x{STRIDED_TILE} tile point")
    print(f"  double-buffered matmul: overlap ratio "
          f"{overlaps[STRIDED_TILE]:.2f}")
    if overlaps[STRIDED_TILE] < MIN_OVERLAP:
        return fail(f"compute/DMA overlap {overlaps[STRIDED_TILE]:.2f} "
                    f"< {MIN_OVERLAP} at {STRIDED_TILE}x{STRIDED_TILE} "
                    f"tiles")

    checked = 0
    for name in ("staging-checksum-match", "compute-checksum-match"):
        points = series.get(name, [])
        if not points:
            return fail(f"{name} series missing from the artifact")
        for tile, match in points:
            checked += 1
            if match != 1.0:
                return fail(f"{name}: staging strategies disagree on "
                            f"the data at {int(tile)}x{int(tile)} tiles")
    print(f"check_bench_regression: tile matmul OK "
          f"({checked} checksum points)")
    return 0


def main():
    where = sys.argv[1] if len(sys.argv) > 1 else "."
    report, err = load_report(where, "BENCH_fig8_throughput.json")
    if err:
        return fail(err)

    series = report.get("series", {})
    base = dict((x, y) for x, y in series.get("memif-mig-4KB", []))
    pip = dict((x, y) for x, y in series.get("memif-pip-4KB", []))
    if not pip:
        return fail("memif-pip-4KB series missing from the artifact")

    checked = 0
    for pages, gbps in sorted(pip.items()):
        if pages < MIN_PAGES or pages not in base:
            continue
        checked += 1
        ratio = gbps / base[pages]
        print(f"  4KB x{int(pages)}: pipelined {gbps:.2f} GB/s "
              f"vs default {base[pages]:.2f} GB/s = {ratio:.2f}x")
        if ratio < MIN_SPEEDUP:
            return fail(
                f"pipelined speedup {ratio:.2f}x < {MIN_SPEEDUP}x "
                f"at {int(pages)} pages/request")
    if checked == 0:
        return fail(f"no comparable points at >= {MIN_PAGES} pages")
    print(f"check_bench_regression: fig8 OK ({checked} points)")
    return check_fig7_streams(where)


if __name__ == "__main__":
    sys.exit(main())
