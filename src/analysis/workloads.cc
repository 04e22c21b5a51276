#include "analysis/workloads.hh"

#include "analysis/cluster.hh"
#include "analysis/pca.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace vca::analysis {

std::vector<double>
workloadStats(const std::vector<std::string> &benchNames,
              unsigned physRegs, InstCount statInsts)
{
    std::vector<const isa::Program *> programs;
    for (const std::string &name : benchNames) {
        programs.push_back(
            wload::cachedProgram(wload::profileByName(name), false));
    }

    cpu::CpuParams params = cpu::CpuParams::preset(
        cpu::RenamerKind::Baseline, physRegs,
        static_cast<unsigned>(programs.size()));
    cpu::OooCpu cpu(params, programs);
    cpu.run(statInsts / 4, statInsts * 100, true);
    cpu.resetStats();
    auto res = cpu.run(statInsts, statInsts * 100, true);

    const double insts = std::max<double>(1.0, res.totalInsts);
    auto &mem = cpu.memSystem();
    auto rate = [&](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };

    // The paper's "vector of 14 statistics (IPC, cache miss rate,
    // etc.)" -- the exact list is unspecified; this covers throughput,
    // balance, memory behaviour and control behaviour.
    std::vector<double> v;
    v.push_back(res.ipc);                                         // 1
    for (unsigned t = 0; t < 2; ++t) {                            // 2,3
        const double ti = t < res.threadInsts.size()
            ? static_cast<double>(res.threadInsts[t]) : 0.0;
        v.push_back(ti / insts);
    }
    v.push_back(rate(mem.dcache().misses.value(),
                     mem.dcache().accesses.value()));             // 4
    v.push_back(rate(mem.l2().misses.value(),
                     mem.l2().accesses.value()));                 // 5
    v.push_back(rate(mem.icache().misses.value(),
                     mem.icache().accesses.value()));             // 6
    v.push_back(cpu.mispredicts.value() * 1000.0 / insts);        // 7
    v.push_back(cpu.committedLoads.value() / insts);              // 8
    v.push_back(cpu.committedStores.value() / insts);             // 9
    v.push_back(cpu.squashedInsts.value() / insts);               // 10
    v.push_back(cpu.loadForwards.value() /
                std::max(1.0, cpu.committedLoads.value()));       // 11
    v.push_back(mem.dcache().accesses.value() / insts);           // 12
    v.push_back(cpu.branchesCommitted.value() / insts);           // 13
    v.push_back(rate(mem.dcache().writebacks.value(),
                     mem.dcache().accesses.value()));             // 14
    return v;
}

namespace {

std::vector<std::vector<std::string>>
selectFrom(const std::vector<std::vector<std::string>> &candidates,
           unsigned keep, unsigned physRegs, InstCount statInsts)
{
    // One independent profiling run per row, written to its own index,
    // so the matrix is the same for any worker count.
    Matrix stats(candidates.size());
    ThreadPool::global().parallelFor(candidates.size(), [&](size_t i) {
        stats[i] = workloadStats(candidates[i], physRegs, statInsts);
    });

    const Matrix projected = pcaProject(stats, 0.9);
    const auto assign = averageLinkageCluster(projected, keep);
    const auto medoids = clusterMedoids(projected, assign);

    std::vector<std::vector<std::string>> out;
    for (size_t idx : medoids)
        out.push_back(candidates[idx]);
    return out;
}

} // namespace

WorkloadSelection
selectWorkloads(const SelectionOptions &opts)
{
    WorkloadSelection sel;

    // All distinct two-benchmark pairings (the paper's 253 analog).
    std::vector<std::vector<std::string>> pairs;
    const auto &profiles = wload::spec2000Profiles();
    for (size_t i = 0; i < profiles.size(); ++i) {
        for (size_t j = i + 1; j < profiles.size(); ++j)
            pairs.push_back({profiles[i].name, profiles[j].name});
    }
    sel.twoThreadCandidates = pairs.size();
    sel.twoThread = selectFrom(pairs, opts.numTwoThread, opts.physRegs,
                               opts.statInsts);

    // Four-thread candidates: pairs of selected two-thread workloads.
    std::vector<std::vector<std::string>> quads;
    for (size_t i = 0; i < sel.twoThread.size(); ++i) {
        for (size_t j = i + 1; j < sel.twoThread.size(); ++j) {
            std::vector<std::string> q = sel.twoThread[i];
            q.insert(q.end(), sel.twoThread[j].begin(),
                     sel.twoThread[j].end());
            quads.push_back(std::move(q));
        }
    }
    sel.fourThreadCandidates = quads.size();
    sel.fourThread = selectFrom(quads, opts.numFourThread, opts.physRegs,
                                opts.statInsts);
    return sel;
}

} // namespace vca::analysis
