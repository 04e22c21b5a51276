/**
 * @file
 * Register-cache telemetry: shadow-model miss classification,
 * occupancy time series, and spill/fill burst histograms.
 *
 * The paper's framing is that the physical register file *is* a cache
 * of the memory-mapped logical-register space.  This analyzer takes
 * that framing literally and applies the classic 3C taxonomy to every
 * fill the renamer performs, using two shadow models driven by the
 * same access stream the real rename table sees:
 *
 *  - an *infinite-register* shadow (a seen-set): a fill whose address
 *    has never been touched is a **compulsory** miss — no register
 *    file of any size or organization could have held it;
 *  - a *fully-associative* shadow with exact LRU replacement, sized
 *    to the machine's register capacity: a fill that the FA shadow
 *    still holds is a **conflict** miss (limited associativity of the
 *    real rename table evicted it), while one the FA shadow also lost
 *    is a **capacity** miss (too few physical registers, period).
 *
 * fills_compulsory + fills_capacity + fills_conflict always equals
 * the renamer's `fills` scalar over the same interval.
 *
 * Determinism: both shadows are pure functions of the probe stream,
 * which is itself a pure function of the simulated execution — the
 * analyzer reads no clocks, no host state, and perturbs nothing, so
 * attaching it never changes simulated numbers and its counters are
 * bit-identical across runs and job counts.
 */

#ifndef VCA_TELEMETRY_REG_CACHE_ANALYZER_HH
#define VCA_TELEMETRY_REG_CACHE_ANALYZER_HH

#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/reg_cache_probe.hh"
#include "core/reg_state.hh"
#include "sim/types.hh"
#include "stats/statistics.hh"

namespace vca::cpu {
class OooCpu;
} // namespace vca::cpu

namespace vca::telemetry {

class RegCacheAnalyzer : public stats::StatGroup, public core::RegCacheProbe
{
  public:
    struct Config
    {
        /** Entries in the fully-associative shadow: the machine's
         *  effective register capacity, min(physRegs, table slots). */
        unsigned shadowCapacity = 0;
        unsigned physRegs = 0;
        unsigned numThreads = 1;
    };

    /** Rename cycles between physical-register occupancy samples. */
    static constexpr Cycle kOccupancySampleInterval = 128;
    /** Width of the spill/fill burst-bandwidth window, in cycles. */
    static constexpr Cycle kBurstWindowCycles = 64;

    /** @param regState the renamer's physical-register state array,
     *  scanned (read-only) when sampling occupancy; may be null to
     *  disable occupancy sampling (probe-driven unit tests). */
    RegCacheAnalyzer(const Config &cfg, const core::RegStateArray *regState,
                     stats::StatGroup *parent);
    ~RegCacheAnalyzer() override;

    // RegCacheProbe
    void onAccess(Addr addr) override;
    void onFill(Addr addr) override;
    void onSpill(Addr addr) override;
    void onCycle(Cycle now) override;

    /** Called by the dtor so the renamer never holds a dangling
     *  probe pointer (set by attachRegCacheAnalyzer). */
    void setDetach(std::function<void()> detach);

    const Config &config() const { return cfg_; }

    // 3C fill classification (sum tracks the renamer's `fills`).
    stats::Scalar fillsCompulsory;
    stats::Scalar fillsCapacity;
    stats::Scalar fillsConflict;
    /** Accesses that hit in the FA shadow (upper bound on what a
     *  fully-associative register cache of this size would achieve). */
    stats::Scalar shadowHits;
    /** All register-cache accesses observed (hits + fills). */
    stats::Scalar accesses;

    // Occupancy time series: committed/allocated physical registers,
    // sampled every kOccupancySampleInterval rename cycles.
    std::vector<std::unique_ptr<stats::Distribution>> occupancyPerThread;
    stats::Distribution occupancyWindowed;
    stats::Distribution occupancyGlobal;

    // Spill/fill burst bandwidth: transfers per burst window.
    stats::Distribution fillBurst;
    stats::Distribution spillBurst;

  private:
    /** Fold an access into the shadows (seen-set + FA-LRU touch). */
    void touch(Addr addr);
    void sampleOccupancy();

    Config cfg_;
    const core::RegStateArray *regState_;
    std::function<void()> detach_;

    // Infinite-register shadow.
    std::unordered_set<Addr> seen_;
    // Fully-associative exact-LRU shadow: MRU at front.
    std::list<Addr> lru_;
    std::unordered_map<Addr, std::list<Addr>::iterator> lruMap_;

    Cycle burstEnd_ = 0;
    unsigned fillsInWindow_ = 0;
    unsigned spillsInWindow_ = 0;
    Cycle nextOccupancySample_ = 0;
};

/**
 * Attach a RegCacheAnalyzer to @p cpu's renamer.  Returns null when
 * the CPU is not using the VCA renamer (nothing to observe).  The
 * analyzer registers itself as a "reg_cache" stat group under the CPU
 * so it flows through dump(), --stats-json, and resetStats() with
 * everything else; shadow-model state intentionally survives stat
 * resets (compulsory misses are defined over the whole execution).
 */
std::unique_ptr<RegCacheAnalyzer> attachRegCacheAnalyzer(cpu::OooCpu &cpu);

} // namespace vca::telemetry

#endif // VCA_TELEMETRY_REG_CACHE_ANALYZER_HH
