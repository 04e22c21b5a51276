/**
 * @file
 * Commit-stream tracing (M5's Exec trace flavour): one line per
 * committed instruction with cycle, thread, pc, disassembly, and the
 * produced value / effective address. Tracers install through the
 * CPU's commit-listener list, so any number of them — plus
 * co-simulation checks, pipeline tracers and interval recorders —
 * can observe the same run.
 */

#ifndef VCA_CPU_TRACER_HH
#define VCA_CPU_TRACER_HH

#include <ostream>

#include "cpu/ooo_cpu.hh"
#include "trace/pipe_trace.hh"

namespace vca::cpu {

/**
 * Attach a commit tracer to the core (composes with other commit
 * listeners); it stops after @p maxInsts lines (0 = never). The
 * stream must outlive the core.
 */
void attachCommitTracer(OooCpu &cpu, std::ostream &os,
                        InstCount maxInsts = 0);

/** Format one committed instruction as a trace line (no newline):
 *  cycle, thread, pc, disassembly, then the destination value (D=)
 *  and load/store effective address (A=) where there is one. */
std::string formatTraceLine(const OooCpu &cpu, const DynInst &inst);

/** Build the pipeline-stage record of one committing instruction. */
trace::PipeRecord makePipeRecord(const OooCpu &cpu, const DynInst &inst);

/**
 * Attach an O3PipeView pipeline tracer: every committed instruction
 * emits its fetch/rename/dispatch/issue/complete/retire timestamps to
 * the stream (render with tools/vca_pipeview or gem5's
 * o3-pipeview.py). With @p instants set, telemetry marks (window
 * overflow/underflow traps, aggregated spill/fill transfer windows)
 * are interleaved as "O3PipeView:instant:<tick>:<label>" records,
 * which parsePipeTrace-based tools count and skip. The stream must
 * outlive the core.
 */
void attachPipeTracer(OooCpu &cpu, std::ostream &os,
                      InstCount maxInsts = 0, bool instants = false);

/**
 * Buckets Spill/Fill SimEvents into consecutive kCycles-wide windows,
 * the first starting at the first transfer. Both trace sinks that
 * mark spill/fill traffic (the O3PipeView "transfers" instants and
 * the Chrome "vca transfers" counter) aggregate through it.
 */
class TransferWindows
{
  public:
    static constexpr Cycle kCycles = 64;

    /**
     * Count one transfer (a spill when @p spill, else a fill) issued
     * at @p cycle. Every window that closes first is passed, empty
     * ones included, to flush(start, spills, fills). The window still
     * open when the run ends is never flushed.
     */
    template <typename Flush>
    void
    add(Cycle cycle, bool spill, Flush &&flush)
    {
        if (end_ == 0) {
            start_ = cycle;
            end_ = cycle + kCycles;
        }
        while (cycle >= end_) {
            flush(start_, spills_, fills_);
            spills_ = 0;
            fills_ = 0;
            start_ = end_;
            end_ += kCycles;
        }
        if (spill)
            ++spills_;
        else
            ++fills_;
    }

  private:
    Cycle start_ = 0;
    Cycle end_ = 0;
    unsigned spills_ = 0;
    unsigned fills_ = 0;
};

} // namespace vca::cpu

#endif // VCA_CPU_TRACER_HH
