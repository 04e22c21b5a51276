/**
 * @file
 * Bridges the CPU's observation hooks onto the Chrome trace writer.
 *
 * Simulated-time tracks reuse the same commit-listener data the
 * O3PipeView tracer consumes: every committed instruction becomes a
 * nested slice stack (outer = lifetime fetch->retire, inner = one
 * slice per pipeline phase) on a per-thread pool of lanes, so
 * overlapping in-flight instructions render side by side in Perfetto
 * exactly like a pipeline diagram.  Window overflow/underflow traps
 * become instant events and VCA spill/fill traffic becomes a counter
 * track (cpu::TransferWindows) with burst instants.
 *
 * One simulated cycle maps to one microsecond of trace time.
 */

#ifndef VCA_TELEMETRY_PIPELINE_TRACE_HH
#define VCA_TELEMETRY_PIPELINE_TRACE_HH

#include "sim/types.hh"
#include "telemetry/chrome_trace.hh"

namespace vca::cpu {
class OooCpu;
} // namespace vca::cpu

namespace vca::telemetry {

/**
 * Attach simulated-time Chrome tracks to @p cpu.  Per-instruction
 * slices stop after @p maxInsts committed instructions (0 = no cap);
 * instants and counters continue.  The writer must outlive the CPU.
 * Composes with other commit listeners (pipeview, interval stats,
 * co-simulation).
 */
void attachChromeSimTracer(cpu::OooCpu &cpu, ChromeTraceWriter &writer,
                           InstCount maxInsts = 0);

} // namespace vca::telemetry

#endif // VCA_TELEMETRY_PIPELINE_TRACE_HH
