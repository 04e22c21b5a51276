/**
 * @file
 * Functional VRISC-64 simulator.
 *
 * Executes a Program architecturally (no timing) under either ABI. Used
 * for: (1) measuring complete-program dynamic path lengths (paper
 * Table 2 and the execution-time methodology of Section 3.1), (2) as
 * the golden model the timing simulator's commit stream is checked
 * against in the integration tests.
 *
 * Windowed-ABI register state is held at its memory-mapped logical
 * register addresses (exactly the VCA model); a direct pointer to the
 * current window frame is cached for speed since frames are aligned and
 * never straddle pages.
 */

#ifndef VCA_FUNC_FUNC_SIM_HH
#define VCA_FUNC_FUNC_SIM_HH

#include <cstdint>
#include <limits>
#include <memory>

#include "isa/bb_cache.hh"
#include "isa/program.hh"
#include "isa/registers.hh"
#include "mem/sparse_memory.hh"
#include "sim/types.hh"

namespace vca::func {

/** Aggregate execution statistics. */
struct FuncSimStats
{
    InstCount insts = 0;
    InstCount loads = 0;
    InstCount stores = 0;
    InstCount calls = 0;
    InstCount condBranches = 0;
    InstCount takenCondBranches = 0;
    unsigned maxCallDepth = 0;
};

/** Record of the most recently executed instruction (for co-sim). */
struct StepRecord
{
    Addr pc = 0;
    Addr npc = 0;
    bool hasDest = false;
    isa::ArchReg dest{};
    std::uint64_t destValue = 0;
    bool isMem = false;
    Addr effAddr = 0;
    bool halted = false;
};

/**
 * Complete architectural register state at an instruction boundary, as
 * seen from the current register window (windowed ABI) or the flat
 * register file (conventional ABI). Together with the memory image
 * this is everything the detailed core needs to switch in.
 */
struct ArchState
{
    Addr pc = 0;
    bool windowedAbi = false;
    unsigned callDepth = 0;
    Addr windowBase = 0; ///< wbp at capture (windowed ABI only)
    std::uint64_t intRegs[isa::numIntRegs] = {};
    std::uint64_t fpRegs[isa::numFloatRegs] = {}; ///< raw IEEE bits
};

/**
 * Load a program's data segments into a memory image. An empty memory
 * maps page-aligned, page-disjoint segments in place as its read-only
 * base (copy-on-write, see SparseMemory::mapBase), so @p prog must
 * outlive every access to @p memory; otherwise the nonzero words are
 * copied.
 */
void loadProgramData(const isa::Program &prog, mem::SparseMemory &memory);

class FuncSim
{
  public:
    /**
     * @param prog   finalized program (determines the ABI)
     * @param memory architectural memory (caller may pre-share/populate;
     *               data segments are loaded by the constructor)
     */
    FuncSim(const isa::Program &prog, mem::SparseMemory &memory);

    /** Execute one instruction; fills rec. Returns false once halted. */
    bool step(StepRecord &rec);

    /**
     * Run until HALT or the instruction limit.
     * @return statistics for the executed span
     */
    FuncSimStats run(InstCount maxInsts =
                         std::numeric_limits<InstCount>::max());

    /**
     * Run until HALT or the instruction limit, dispatching once per
     * basic block through the lazily built decoded-BB cache instead of
     * once per instruction, and skipping per-step record upkeep.
     * Architecturally identical to run(); just faster.
     */
    FuncSimStats runFast(InstCount maxInsts =
                             std::numeric_limits<InstCount>::max());

    /** Snapshot of the architectural register state (switch-in). */
    ArchState captureState() const;

    /** Current call depth (calls minus returns, floored at 0). */
    unsigned callDepth() const { return depth_; }

    bool halted() const { return halted_; }
    Addr pc() const { return pc_; }
    const FuncSimStats &stats() const { return stats_; }

    /** Architectural register read (for tests). */
    std::uint64_t readIntReg(RegIndex idx) const;
    double readFloatReg(RegIndex idx) const;

    /** Architectural register write (for tests / setup). */
    void writeIntReg(RegIndex idx, std::uint64_t value);

    /** Current window base pointer (windowed ABI only). */
    Addr windowBase() const { return wbp_; }

  private:
    std::uint64_t readReg(isa::RegClass cls, RegIndex idx) const;
    void writeReg(isa::RegClass cls, RegIndex idx, std::uint64_t value);
    void refreshFrameCache();

    /**
     * Execute the instruction at pc_ (si must be prog_.inst(pc_)).
     * Record=false skips all StepRecord upkeep for the fast path.
     * Returns false once halted.
     */
    template <bool Record>
    bool execInst(const isa::StaticInst &si, StepRecord *rec);

    const isa::Program &prog_;
    mem::SparseMemory &mem_;
    Addr pc_ = 0;
    bool halted_ = false;
    unsigned depth_ = 0;

    // Non-windowed (and global) register state.
    std::uint64_t intRegs_[isa::numIntRegs] = {};
    std::uint64_t fpRegs_[isa::numFloatRegs] = {};

    // Windowed state.
    bool windowed_ = false;
    Addr wbp_ = 0;

    // Decoded-BB dispatch cache, built on first runFast().
    std::unique_ptr<isa::BbCache> bbCache_;

    FuncSimStats stats_;
};

} // namespace vca::func

#endif // VCA_FUNC_FUNC_SIM_HH
