#include "telemetry/reg_cache_analyzer.hh"

#include <algorithm>

#include "core/vca_renamer.hh"
#include "cpu/ooo_cpu.hh"
#include "isa/program.hh"

namespace vca::telemetry {

namespace {

// Splits a thread-region offset into "global/flat frame" (low
// addresses, growing up from the global base pointer) versus "window
// frames" (growing down from windowStackTop, 16 MiB into the region).
// Half-way between the two regions is an unambiguous boundary for
// both the windowed and the flat ABI.
constexpr Addr kWindowedBoundary = isa::layout::threadRegionBytes / 4;

unsigned
occupancyBuckets(unsigned physRegs)
{
    return std::min(16u, physRegs + 1);
}

} // namespace

RegCacheAnalyzer::RegCacheAnalyzer(const Config &cfg,
                                   const core::RegStateArray *regState,
                                   stats::StatGroup *parent)
    : stats::StatGroup("reg_cache", parent),
      fillsCompulsory(this, "fills_compulsory",
                      "fills whose address was never seen before"),
      fillsCapacity(this, "fills_capacity",
                    "fills a fully-associative register file of equal "
                    "capacity would also have missed"),
      fillsConflict(this, "fills_conflict",
                    "fills caused by limited rename-table associativity"),
      shadowHits(this, "shadow_hits",
                 "accesses hitting the fully-associative LRU shadow"),
      accesses(this, "accesses",
               "logical-register cache accesses observed (hits + fills)"),
      occupancyWindowed(this, "occupancy_windowed",
                        "sampled physical registers holding window-frame "
                        "addresses",
                        0, cfg.physRegs + 1, occupancyBuckets(cfg.physRegs)),
      occupancyGlobal(this, "occupancy_global",
                      "sampled physical registers holding global/flat "
                      "frame addresses",
                      0, cfg.physRegs + 1, occupancyBuckets(cfg.physRegs)),
      fillBurst(this, "fill_burst",
                "fills per burst window (bandwidth histogram)",
                0, kBurstWindowCycles + 1, 16),
      spillBurst(this, "spill_burst",
                 "spills per burst window (bandwidth histogram)",
                 0, kBurstWindowCycles + 1, 16),
      cfg_(cfg), regState_(regState)
{
    occupancyPerThread.reserve(cfg_.numThreads);
    for (unsigned t = 0; t < cfg_.numThreads; ++t) {
        occupancyPerThread.push_back(std::make_unique<stats::Distribution>(
            this, "occupancy_t" + std::to_string(t),
            "sampled physical registers owned by thread " +
                std::to_string(t),
            0, cfg_.physRegs + 1, occupancyBuckets(cfg_.physRegs)));
    }
}

RegCacheAnalyzer::~RegCacheAnalyzer()
{
    if (detach_)
        detach_();
}

void
RegCacheAnalyzer::setDetach(std::function<void()> detach)
{
    detach_ = std::move(detach);
}

void
RegCacheAnalyzer::touch(Addr addr)
{
    seen_.insert(addr);
    auto it = lruMap_.find(addr);
    if (it != lruMap_.end()) {
        ++shadowHits;
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    lru_.push_front(addr);
    lruMap_[addr] = lru_.begin();
    if (cfg_.shadowCapacity && lru_.size() > cfg_.shadowCapacity) {
        lruMap_.erase(lru_.back());
        lru_.pop_back();
    }
}

void
RegCacheAnalyzer::onAccess(Addr addr)
{
    ++accesses;
    touch(addr);
}

void
RegCacheAnalyzer::onFill(Addr addr)
{
    // Classify before folding the access into the shadows: the
    // question is what the shadows held at the moment the real table
    // missed.
    if (!seen_.count(addr))
        ++fillsCompulsory;
    else if (lruMap_.count(addr))
        ++fillsConflict;
    else
        ++fillsCapacity;
    ++fillsInWindow_;
    ++accesses;
    touch(addr);
}

void
RegCacheAnalyzer::onSpill(Addr addr)
{
    // A spill is a writeback, not an access: it does not change what
    // either shadow model holds.
    (void)addr;
    ++spillsInWindow_;
}

void
RegCacheAnalyzer::onCycle(Cycle now)
{
    if (burstEnd_ == 0) {
        burstEnd_ = now + kBurstWindowCycles;
    } else {
        while (now >= burstEnd_) {
            fillBurst.sample(fillsInWindow_);
            spillBurst.sample(spillsInWindow_);
            fillsInWindow_ = 0;
            spillsInWindow_ = 0;
            burstEnd_ += kBurstWindowCycles;
        }
    }
    if (regState_ && now >= nextOccupancySample_) {
        sampleOccupancy();
        nextOccupancySample_ = now + kOccupancySampleInterval;
    }
}

void
RegCacheAnalyzer::sampleOccupancy()
{
    std::vector<unsigned> perThread(occupancyPerThread.size(), 0);
    unsigned windowed = 0;
    unsigned global = 0;
    for (unsigned i = 0; i < regState_->numRegs(); ++i) {
        const core::PhysState &ps = (*regState_)[i];
        if (ps.free())
            continue;
        const unsigned t = isa::layout::regSpaceThread(ps.addr);
        if (t < perThread.size())
            ++perThread[t];
        const Addr offset = ps.addr - isa::layout::globalBasePointer(t);
        if (offset >= kWindowedBoundary)
            ++windowed;
        else
            ++global;
    }
    for (unsigned t = 0; t < perThread.size(); ++t)
        occupancyPerThread[t]->sample(perThread[t]);
    occupancyWindowed.sample(windowed);
    occupancyGlobal.sample(global);
}

std::unique_ptr<RegCacheAnalyzer>
attachRegCacheAnalyzer(cpu::OooCpu &cpu)
{
    auto *vca = dynamic_cast<core::VcaRenamer *>(&cpu.renamer());
    if (!vca)
        return nullptr;

    const cpu::CpuParams &p = vca->params();
    RegCacheAnalyzer::Config cfg;
    cfg.physRegs = p.physRegs;
    cfg.numThreads = p.numThreads;
    // Effective capacity of the real register cache: the table can
    // name at most sets*assoc addresses, the register file can hold
    // at most physRegs values; the ideal (unbounded-table) variant is
    // limited by registers alone.
    cfg.shadowCapacity =
        vca->ideal() ? p.physRegs
                     : std::min<unsigned>(p.physRegs,
                                          p.vcaTableSets * p.vcaTableAssoc);

    auto analyzer = std::make_unique<RegCacheAnalyzer>(
        cfg, &vca->regState(), &cpu);
    vca->attachProbe(analyzer.get());
    analyzer->setDetach([vca] { vca->attachProbe(nullptr); });
    return analyzer;
}

} // namespace vca::telemetry
