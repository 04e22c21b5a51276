/**
 * @file
 * Per-instruction pipeline event traces in gem5's O3PipeView format.
 *
 * Each committed instruction emits one record of stage timestamps:
 *
 *   O3PipeView:fetch:<tick>:0x<pc>:<tid>:<seq>:<disasm>
 *   O3PipeView:decode:<tick>
 *   O3PipeView:rename:<tick>
 *   O3PipeView:dispatch:<tick>
 *   O3PipeView:issue:<tick>
 *   O3PipeView:complete:<tick>
 *   O3PipeView:retire:<tick>:store:<store-writeback-tick>
 *
 * Ticks are cycles scaled by kTicksPerCycle (1000, matching gem5's
 * picosecond ticks at 1 GHz) so the traces feed gem5's
 * o3-pipeview.py as well as the bundled tools/vca_pipeview renderer.
 * Records appear in commit order; squashed instructions never retire
 * and are not recorded.
 */

#ifndef VCA_TRACE_PIPE_TRACE_HH
#define VCA_TRACE_PIPE_TRACE_HH

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace vca::trace {

/** Trace ticks per simulated cycle in the traces this writes. */
constexpr Cycle kTicksPerCycle = 1000;

/** Stage timestamps (in cycles) of one committed instruction. */
struct PipeRecord
{
    std::uint64_t seq = 0;
    unsigned tid = 0;
    Addr pc = 0;
    Cycle fetch = 0;
    Cycle decode = 0;
    Cycle rename = 0;
    Cycle dispatch = 0;
    Cycle issue = 0;
    Cycle complete = 0;
    Cycle commit = 0;
    bool isStore = false;
    Cycle storeComplete = 0; ///< store-buffer writeback (0 = n/a)
    std::string disasm;

    /** Stage timestamps must be non-decreasing through the pipe. */
    bool
    monotonic() const
    {
        return fetch <= decode && decode <= rename &&
               rename <= dispatch && dispatch <= issue &&
               issue <= complete && complete <= commit;
    }
};

/** Streams PipeRecords as O3PipeView text. */
class PipeTraceWriter
{
  public:
    explicit PipeTraceWriter(std::ostream &os) : os_(os) {}

    void write(const PipeRecord &rec);

    /**
     * Emit a standalone instant record between instruction records:
     *
     *   O3PipeView:instant:<tick>:<label>
     *
     * Used for telemetry marks (window traps, spill/fill bursts).
     * parsePipeTrace counts and skips these — like any record type it
     * does not know — so the traces stay loadable by older tools.
     */
    void instant(const std::string &label, Cycle when);

    std::uint64_t recordsWritten() const { return written_; }
    std::uint64_t instantsWritten() const { return instants_; }

  private:
    std::ostream &os_;
    std::uint64_t written_ = 0;
    std::uint64_t instants_ = 0;
};

/**
 * Parse an O3PipeView trace back into records (tools, tests).
 * Unrelated lines are skipped; a malformed record sets *error and
 * returns false. Ticks are divided by ticksPerCycle (gem5 traces
 * may use another scale than kTicksPerCycle). O3PipeView lines
 * of unknown record type (e.g. "instant" telemetry marks) are skipped
 * and counted into *unknownRecords when given.
 */
bool parsePipeTrace(std::istream &is, std::vector<PipeRecord> &out,
                    std::string *error = nullptr,
                    Cycle ticksPerCycle = kTicksPerCycle,
                    std::uint64_t *unknownRecords = nullptr);

} // namespace vca::trace

#endif // VCA_TRACE_PIPE_TRACE_HH
