/**
 * @file
 * SMT workload selection, reproducing paper Section 3.2 (after
 * Raasch & Reinhardt): simulate every two-benchmark pairing on the
 * baseline SMT machine, extract a 14-statistic vector per workload,
 * reduce dimensionality with PCA, cluster with average linkage, and
 * keep the workload nearest each cluster centroid. Four-thread
 * workloads repeat the process on pairs of the selected two-thread
 * workloads.
 *
 * The profiling runs execute on ThreadPool::global() (parallelFor),
 * each filling its own row of the statistics matrix, so the selection
 * is identical for any VCA_JOBS. They build their OooCpu directly and
 * never touch the sweep runner or its result cache.
 *
 * The paper selects 43 two-thread and 127 four-thread clusters from
 * 100M-instruction runs; the defaults here are scaled for laptop/CI
 * budgets and are configurable (the pipeline itself is identical).
 */

#ifndef VCA_ANALYSIS_WORKLOADS_HH
#define VCA_ANALYSIS_WORKLOADS_HH

#include <string>
#include <vector>

#include "analysis/experiment.hh"

namespace vca::analysis {

struct WorkloadSelection
{
    /** Benchmark names per selected two-thread workload. */
    std::vector<std::vector<std::string>> twoThread;
    /** Benchmark names per selected four-thread workload. */
    std::vector<std::vector<std::string>> fourThread;
    /** All candidate counts, for reporting. */
    size_t twoThreadCandidates = 0;
    size_t fourThreadCandidates = 0;
};

struct SelectionOptions
{
    unsigned numTwoThread = 8;   ///< clusters to keep (paper: 43)
    unsigned numFourThread = 6;  ///< clusters to keep (paper: 127)
    InstCount statInsts = 30'000; ///< per-workload profiling budget
    unsigned physRegs = 448;     ///< baseline machine used for stats
};

/** Run the full selection pipeline (deterministic). */
WorkloadSelection selectWorkloads(const SelectionOptions &opts);

/** The 14-statistic vector for one simulated workload (exposed for
 *  testing and for the ablation benches). */
std::vector<double> workloadStats(
    const std::vector<std::string> &benchNames, unsigned physRegs,
    InstCount statInsts);

} // namespace vca::analysis

#endif // VCA_ANALYSIS_WORKLOADS_HH
