/**
 * @file
 * Methodology walkthrough: SimPoint-style phase analysis and commit
 * tracing.
 *
 * The paper simulates "the best single SimPoint" of each benchmark
 * (Section 3). This example runs the phase pipeline on a bundled
 * benchmark — basic-block vectors per interval, k-means over the
 * projected BBVs, representative-interval selection — then shows a
 * short commit trace from a detailed simulation, the tooling you would
 * use to inspect any configuration by eye.
 */

#include <cstdio>
#include <iostream>

#include "analysis/simpoint.hh"
#include "cpu/ooo_cpu.hh"
#include "cpu/tracer.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

using namespace vca;

int
main(int argc, char **argv)
{
    setQuiet(true);
    const char *benchName = argc > 1 ? argv[1] : "gcc_expr";
    const auto &prof = wload::profileByName(benchName);
    const isa::Program *prog = wload::cachedProgram(prof, false);

    // ---- Phase analysis ----
    const InstCount interval = 50'000;
    const auto result = analysis::pickSimPoint(*prog, interval, 5, 24);

    std::printf("phase analysis of %s (%llu-instruction intervals):\n",
                prof.name.c_str(),
                (unsigned long long)interval);
    std::printf("  phases found      : %u\n", result.numPhases);
    std::printf("  dominant phase    : %.0f%% of intervals\n",
                100 * result.largestPhaseWeight);
    std::printf("  chosen SimPoint   : interval %zu (instructions "
                "%llu..%llu)\n",
                result.intervalIndex,
                (unsigned long long)(result.intervalIndex * interval),
                (unsigned long long)((result.intervalIndex + 1) *
                                     interval));
    std::printf("  phase per interval:");
    for (unsigned p : result.phaseOf)
        std::printf(" %u", p);
    std::printf("\n\n");

    // ---- Commit trace around steady state ----
    std::printf("commit trace (VCA @ 160 registers, 12 instructions "
                "after warm-up):\n");
    cpu::CpuParams params =
        cpu::CpuParams::preset(cpu::RenamerKind::Vca, 160);
    cpu::OooCpu cpu(params, {wload::cachedProgram(prof, true)});
    cpu.run(5'000, 1'000'000); // warm up untraced
    cpu::attachCommitTracer(cpu, std::cout, 12);
    cpu.run(2'000, 1'000'000);
    return 0;
}
