/**
 * @file
 * Tests for the analysis substrate: PCA (normalization, covariance,
 * Jacobi eigensolver, projection), hierarchical clustering, the
 * experiment harness, and the workload-selection pipeline.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "analysis/cluster.hh"
#include "analysis/experiment.hh"
#include "analysis/pca.hh"
#include "analysis/runner.hh"
#include "analysis/simpoint.hh"
#include "analysis/workloads.hh"
#include "wload/asm_builder.hh"
#include "wload/profile.hh"

namespace {

using namespace vca;
using namespace vca::analysis;

// ---------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------

TEST(Pca, ZscoreNormalization)
{
    Matrix m = {{1, 10}, {2, 10}, {3, 10}};
    zscoreNormalize(m);
    // Column 0: mean 2, sd sqrt(2/3).
    EXPECT_NEAR(m[0][0] + m[1][0] + m[2][0], 0.0, 1e-12);
    EXPECT_NEAR(m[2][0], -m[0][0], 1e-12);
    // Constant column becomes zero.
    for (const auto &r : m)
        EXPECT_DOUBLE_EQ(r[1], 0.0);
}

TEST(Pca, CovarianceOfIndependentColumns)
{
    Matrix m = {{1, 4}, {-1, -4}, {1, -4}, {-1, 4}};
    const Matrix cov = covariance(m);
    EXPECT_NEAR(cov[0][0], 1.0, 1e-12);
    EXPECT_NEAR(cov[1][1], 16.0, 1e-12);
    EXPECT_NEAR(cov[0][1], 0.0, 1e-12);
}

TEST(Pca, JacobiEigenDiagonal)
{
    const Matrix m = {{3, 0}, {0, 7}};
    const EigenResult e = jacobiEigen(m);
    EXPECT_NEAR(e.values[0], 7.0, 1e-9);
    EXPECT_NEAR(e.values[1], 3.0, 1e-9);
}

TEST(Pca, JacobiEigenSymmetric2x2)
{
    // [[2,1],[1,2]] has eigenvalues 3 and 1.
    const Matrix m = {{2, 1}, {1, 2}};
    const EigenResult e = jacobiEigen(m);
    EXPECT_NEAR(e.values[0], 3.0, 1e-9);
    EXPECT_NEAR(e.values[1], 1.0, 1e-9);
    // Leading eigenvector is (1,1)/sqrt(2) up to sign.
    EXPECT_NEAR(std::fabs(e.vectors[0][0]), 1 / std::sqrt(2.0), 1e-6);
    EXPECT_NEAR(std::fabs(e.vectors[0][1]), 1 / std::sqrt(2.0), 1e-6);
}

TEST(Pca, EigenvaluesSumToTrace)
{
    Matrix m = {{4, 1, 0.5}, {1, 3, 0.2}, {0.5, 0.2, 2}};
    const EigenResult e = jacobiEigen(m);
    double sum = 0;
    for (double v : e.values)
        sum += v;
    EXPECT_NEAR(sum, 9.0, 1e-9);
}

TEST(Pca, ProjectionReducesCorrelatedDimensions)
{
    // Points on a line in 3D: one principal component suffices.
    Matrix m;
    for (int i = 0; i < 16; ++i) {
        const double t = i;
        m.push_back({t, 2 * t + 0.001 * (i % 2), -t});
    }
    const Matrix p = pcaProject(m, 0.9);
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p[0].size(), 1u);
}

// ---------------------------------------------------------------------
// Clustering
// ---------------------------------------------------------------------

TEST(Cluster, SeparatesObviousGroups)
{
    Matrix pts;
    for (int i = 0; i < 5; ++i)
        pts.push_back({double(i) * 0.01, 0});
    for (int i = 0; i < 5; ++i)
        pts.push_back({100 + double(i) * 0.01, 0});
    const auto assign = averageLinkageCluster(pts, 2);
    for (int i = 1; i < 5; ++i)
        EXPECT_EQ(assign[i], assign[0]);
    for (int i = 6; i < 10; ++i)
        EXPECT_EQ(assign[i], assign[5]);
    EXPECT_NE(assign[0], assign[5]);
}

TEST(Cluster, MedoidsAreClusterMembers)
{
    Matrix pts = {{0, 0}, {1, 0}, {0.5, 0}, {50, 0}, {51, 0}};
    const auto assign = averageLinkageCluster(pts, 2);
    const auto medoids = clusterMedoids(pts, assign);
    ASSERT_EQ(medoids.size(), 2u);
    // The medoid of {0,1,0.5} is the middle point.
    bool sawMiddle = false;
    for (size_t m : medoids)
        sawMiddle = sawMiddle || m == 2;
    EXPECT_TRUE(sawMiddle);
}

TEST(Cluster, OneClusterPerPointIsIdentity)
{
    Matrix pts = {{0, 0}, {5, 0}, {9, 0}};
    const auto assign = averageLinkageCluster(pts, 3);
    EXPECT_NE(assign[0], assign[1]);
    EXPECT_NE(assign[1], assign[2]);
}

// ---------------------------------------------------------------------
// Experiment harness
// ---------------------------------------------------------------------

TEST(Experiment, PathLengthCachedAndConsistent)
{
    const auto &prof = wload::profileByName("crafty");
    const InstCount a = pathLength(prof, true);
    const InstCount b = pathLength(prof, true);
    EXPECT_EQ(a, b);
    EXPECT_LT(a, pathLength(prof, false));
    EXPECT_GT(memOpCount(prof, true), 0u);
}

TEST(Experiment, BaselineAbiSelection)
{
    EXPECT_FALSE(usesWindowedBinary(cpu::RenamerKind::Baseline));
    EXPECT_TRUE(usesWindowedBinary(cpu::RenamerKind::ConvWindow));
    EXPECT_TRUE(usesWindowedBinary(cpu::RenamerKind::IdealWindow));
    EXPECT_TRUE(usesWindowedBinary(cpu::RenamerKind::Vca));
}

TEST(Experiment, InoperableConfigReportsNotOk)
{
    RunOptions opts;
    opts.warmupInsts = 1000;
    opts.measureInsts = 2000;
    const auto m = runBench(wload::profileByName("crafty"),
                            cpu::RenamerKind::Baseline, 64, opts);
    EXPECT_FALSE(m.ok);
    EXPECT_FALSE(m.error.empty());
}

TEST(Experiment, MeasurementFieldsConsistent)
{
    RunOptions opts;
    opts.warmupInsts = 5'000;
    opts.measureInsts = 30'000;
    const auto m = runBench(wload::profileByName("crafty"),
                            cpu::RenamerKind::Vca, 192, opts);
    ASSERT_TRUE(m.ok);
    EXPECT_GE(m.insts, opts.measureInsts);
    EXPECT_NEAR(m.ipc * m.cpi, 1.0, 1e-9);
    EXPECT_GT(m.dcacheAccPerInst, 0.0);
    EXPECT_LT(m.dcacheAccPerInst, 1.0);
    ASSERT_EQ(m.threadCpi.size(), 1u);
    EXPECT_NEAR(m.threadCpi[0], m.cpi, 1e-9);
}

TEST(Experiment, ExecutionTimeScalesWithPathLength)
{
    RunOptions opts;
    opts.warmupInsts = 5'000;
    opts.measureInsts = 30'000;
    const auto &prof = wload::profileByName("crafty");
    const auto m = runBench(prof, cpu::RenamerKind::Baseline, 256, opts);
    ASSERT_TRUE(m.ok);
    const double t = executionTime(prof, cpu::RenamerKind::Baseline, m);
    EXPECT_NEAR(t, m.cpi * double(pathLength(prof, false)), 1e-6);
}

TEST(Experiment, MeanHelper)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
}

// ---------------------------------------------------------------------
// Sweep runner and result cache
// ---------------------------------------------------------------------

namespace {

/** Fresh, empty cache directory under the system temp dir. */
std::string
freshCacheDir(const char *name)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         (std::string("vca_test_cache_") + name);
    fs::remove_all(dir);
    return dir.string();
}

RunOptions
tinyOptions()
{
    RunOptions opts;
    opts.warmupInsts = 500;
    opts.measureInsts = 4'000;
    return opts;
}

} // namespace

TEST(Runner, PointKeyCoversConfigAndVersion)
{
    const RunOptions opts = tinyOptions();
    const auto a = makePoint("crafty", cpu::RenamerKind::Vca, 128, opts);
    auto b = a;
    EXPECT_EQ(pointKey(a), pointKey(b));
    EXPECT_EQ(pointHash(a), pointHash(b));
    EXPECT_NE(pointKey(a).find(kSimVersionTag), std::string::npos);
    EXPECT_NE(pointKey(a).find("crafty"), std::string::npos);

    b.physRegs = 129;
    EXPECT_NE(pointKey(a), pointKey(b));
    b = a;
    b.opts.overrides.astqEntries = 2;
    EXPECT_NE(pointKey(a), pointKey(b));

    // The derived seed is deterministic, never 0 (0 = library
    // default), and differs between distinct points.
    EXPECT_EQ(pointSeed(a), pointSeed(a));
    EXPECT_NE(pointSeed(a), 0u);
    EXPECT_NE(pointSeed(a), pointSeed(b));
}

TEST(Runner, WarmCacheRunsZeroSimulations)
{
    setQuiet(true);
    const std::string dir = freshCacheDir("warm");
    std::vector<SweepPoint> points;
    for (cpu::RenamerKind kind :
         {cpu::RenamerKind::Baseline, cpu::RenamerKind::Vca})
        for (unsigned regs : {64u, 128u})
            points.push_back(makePoint("crafty", kind, regs,
                                       tinyOptions()));

    SweepConfig config;
    config.jobs = 2;
    config.cacheDir = dir;
    SweepRunner cold(config);
    const auto first = cold.run(points);
    EXPECT_EQ(cold.cacheHits.value(), 0.0);
    EXPECT_EQ(cold.cacheMisses.value(), double(points.size()));

    // A second runner over the same directory must serve everything —
    // including the inoperable baseline @ 64 point — from disk.
    const std::uint64_t simsBefore = runTimingCallCount();
    SweepRunner warm(config);
    const auto second = warm.run(points);
    EXPECT_EQ(runTimingCallCount(), simsBefore)
        << "warm-cache sweep must not simulate";
    EXPECT_EQ(warm.cacheHits.value(), double(points.size()));
    EXPECT_EQ(warm.cacheMisses.value(), 0.0);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_TRUE(first[i] == second[i]) << "point " << i;
    EXPECT_FALSE(second[0].ok) << "baseline @ 64 stays inoperable";
    std::filesystem::remove_all(dir);
}

TEST(Runner, BatchDedupesIdenticalPoints)
{
    setQuiet(true);
    const auto point =
        makePoint("mesa", cpu::RenamerKind::Vca, 160, tinyOptions());
    SweepConfig config;
    config.jobs = 4;
    config.cacheDir.clear(); // no cache: dedupe must do the saving
    SweepRunner runner(config);
    const std::uint64_t simsBefore = runTimingCallCount();
    const auto results =
        runner.run({point, point, point, point});
    EXPECT_EQ(runTimingCallCount(), simsBefore + 1)
        << "identical points in one batch simulate once";
    ASSERT_EQ(results.size(), 4u);
    ASSERT_TRUE(results[0].ok);
    for (size_t i = 1; i < results.size(); ++i)
        EXPECT_TRUE(results[i] == results[0]);
}

TEST(Runner, CorruptAndStaleCacheEntriesReadAsMisses)
{
    setQuiet(true);
    const std::string dir = freshCacheDir("corrupt");
    const auto point =
        makePoint("gap", cpu::RenamerKind::Vca, 128, tinyOptions());

    // A corrupt entry at the point's location must be re-simulated,
    // not crash; the runner then repairs the entry.
    std::filesystem::create_directories(dir);
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.json",
                  static_cast<unsigned long long>(pointHash(point)));
    const std::string path = dir + "/" + name;
    {
        std::ofstream os(path);
        os << "{ not json";
    }
    SweepConfig config;
    config.cacheDir = dir;
    SweepRunner runner(config);
    const auto m = runner.runPoint(point);
    EXPECT_TRUE(m.ok);
    EXPECT_EQ(runner.cacheMisses.value(), 1.0);

    // ... and a mismatched key (hash collision / stale tag stand-in)
    // is also a miss rather than a wrong answer.
    {
        std::ofstream os(path);
        os << "{\"version\": \"" << kSimVersionTag
           << "\", \"key\": \"some other point\", "
              "\"measurement\": " << measurementToJson(m) << "}";
    }
    const auto again = runner.runPoint(point);
    EXPECT_TRUE(again.ok);
    EXPECT_EQ(runner.cacheMisses.value(), 2.0);
    EXPECT_TRUE(again == m) << "re-simulated point must reproduce";
    std::filesystem::remove_all(dir);
}

TEST(Runner, TruncatedCacheEntryIsAMiss)
{
    setQuiet(true);
    const std::string dir = freshCacheDir("truncated");
    const auto point =
        makePoint("gap", cpu::RenamerKind::Vca, 128, tinyOptions());
    SweepConfig config;
    config.cacheDir = dir;
    SweepRunner writer(config);
    const auto m = writer.runPoint(point);
    ASSERT_TRUE(m.ok);

    // A completed sweep leaves exactly the committed entry — no
    // in-flight ".tmp.*" files.
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.json",
                  static_cast<unsigned long long>(pointHash(point)));
    const std::string path = dir + "/" + name;
    size_t entries = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        ++entries;
        EXPECT_EQ(e.path().string(), path)
            << "unexpected leftover " << e.path();
    }
    EXPECT_EQ(entries, 1u);

    // Chop the entry mid-JSON, as an interrupted writer of the final
    // path would have. load() must report a miss (not a crash, not a
    // garbage measurement) and the runner must re-simulate.
    const auto size = std::filesystem::file_size(path);
    ASSERT_GT(size, 16u);
    std::filesystem::resize_file(path, size / 2);
    Measurement out;
    EXPECT_FALSE(writer.cache().load(point, out))
        << "truncated cache entry must read as a miss";
    SweepRunner reader(config);
    const auto again = reader.runPoint(point);
    EXPECT_EQ(reader.cacheMisses.value(), 1.0);
    EXPECT_TRUE(again == m) << "re-simulated point must reproduce";

    // The miss repaired the entry: a valid load now succeeds.
    EXPECT_TRUE(reader.cache().load(point, out));
    EXPECT_TRUE(out == m);
    std::filesystem::remove_all(dir);
}

TEST(Runner, DisabledCacheNeverTouchesDisk)
{
    setQuiet(true);
    SweepConfig config;
    config.cacheDir.clear();
    SweepRunner runner(config);
    EXPECT_FALSE(runner.cache().enabled());
    const auto point =
        makePoint("twolf", cpu::RenamerKind::IdealWindow, 96,
                  tinyOptions());
    const std::uint64_t simsBefore = runTimingCallCount();
    const auto a = runner.runPoint(point);
    const auto b = runner.runPoint(point);
    EXPECT_EQ(runTimingCallCount(), simsBefore + 2);
    EXPECT_TRUE(a == b) << "determinism without the cache";
}

// ---------------------------------------------------------------------
// Workload selection (scaled down: a 6-benchmark universe would take
// too long; we use the stats vector and pipeline pieces directly)
// ---------------------------------------------------------------------

TEST(Workloads, StatsVectorHasFourteenEntries)
{
    const auto v = workloadStats({"crafty", "gzip_graphic"}, 448,
                                 8'000);
    EXPECT_EQ(v.size(), 14u);
    EXPECT_GT(v[0], 0.0) << "IPC must be positive";
}

TEST(Workloads, StatsAreDeterministic)
{
    const auto a = workloadStats({"crafty", "mesa"}, 448, 6'000);
    const auto b = workloadStats({"crafty", "mesa"}, 448, 6'000);
    EXPECT_EQ(a, b);
}

TEST(WorkloadSelection, ParallelSelectionMatchesSerialReference)
{
    // selectWorkloads profiles its candidates on the global pool; the
    // result must equal the pipeline run one workload at a time.
    SelectionOptions opts;
    opts.numTwoThread = 2;
    opts.numFourThread = 1;
    opts.statInsts = 1'000;
    const WorkloadSelection sel = selectWorkloads(opts);

    using Names = std::vector<std::vector<std::string>>;
    const auto serial = [&](const Names &candidates, unsigned keep) {
        Matrix stats;
        for (const auto &names : candidates)
            stats.push_back(
                workloadStats(names, opts.physRegs, opts.statInsts));
        const Matrix projected = pcaProject(stats, 0.9);
        Names out;
        for (size_t idx : clusterMedoids(
                 projected, averageLinkageCluster(projected, keep)))
            out.push_back(candidates[idx]);
        return out;
    };

    Names pairs;
    const auto &profiles = wload::spec2000Profiles();
    for (size_t i = 0; i < profiles.size(); ++i)
        for (size_t j = i + 1; j < profiles.size(); ++j)
            pairs.push_back({profiles[i].name, profiles[j].name});
    EXPECT_EQ(sel.twoThreadCandidates, pairs.size());
    EXPECT_EQ(sel.twoThread, serial(pairs, opts.numTwoThread));

    ASSERT_EQ(sel.twoThread.size(), 2u);
    std::vector<std::string> quad = sel.twoThread[0];
    quad.insert(quad.end(), sel.twoThread[1].begin(),
                sel.twoThread[1].end());
    EXPECT_EQ(sel.fourThreadCandidates, 1u);
    EXPECT_EQ(sel.fourThread, serial({quad}, opts.numFourThread));
}

} // namespace

// ---------------------------------------------------------------------
// SimPoint-style phase analysis
// ---------------------------------------------------------------------

namespace simpoint_tests {

using wload::AsmBuilder;

/** Two obvious phases: a long integer loop, then a long FP loop. */
isa::Program
twoPhaseProgram(unsigned tripsPerPhase)
{
    AsmBuilder b;
    b.addi(13, isa::regZero, 8000);
    auto phase1 = b.newLabel();
    b.bind(phase1);
    for (int i = 0; i < 10; ++i)
        b.emitR(isa::Opcode::Add, 10, 10, 11);
    b.addi(13, 13, -1);
    b.branch(isa::Opcode::Bne, 13, isa::regZero, phase1);

    b.addi(13, isa::regZero,
           static_cast<std::int32_t>(tripsPerPhase));
    auto phase2 = b.newLabel();
    b.bind(phase2);
    for (int i = 0; i < 10; ++i)
        b.emitR(isa::Opcode::Fadd, 8, 8, 9);
    b.addi(13, 13, -1);
    b.branch(isa::Opcode::Bne, 13, isa::regZero, phase2);
    b.halt();

    isa::Program p;
    p.name = "twophase";
    p.code = b.seal();
    p.finalize();
    return p;
}

} // namespace simpoint_tests

TEST(SimPoint, BbvsCoverAllInstructions)
{
    const isa::Program p = simpoint_tests::twoPhaseProgram(8000);
    const auto bbvs = collectBbvs(p, 10'000);
    ASSERT_GT(bbvs.size(), 2u);
    // Total attributed instructions == interval length for all full
    // intervals.
    for (size_t i = 0; i + 1 < bbvs.size(); ++i) {
        std::uint64_t total = 0;
        for (const auto &[pc, count] : bbvs[i])
            total += count;
        EXPECT_EQ(total, 10'000u) << "interval " << i;
    }
}

TEST(SimPoint, KmeansSeparatesPhases)
{
    Matrix pts = {{0, 0}, {0.1, 0}, {0, 0.1}, {9, 9}, {9.1, 9}};
    const auto r = kmeans(pts, 2);
    EXPECT_EQ(r.assign[0], r.assign[1]);
    EXPECT_EQ(r.assign[0], r.assign[2]);
    EXPECT_EQ(r.assign[3], r.assign[4]);
    EXPECT_NE(r.assign[0], r.assign[3]);
    EXPECT_LT(r.distortion, 0.1);
}

TEST(SimPoint, DetectsTwoPhaseProgram)
{
    const isa::Program p = simpoint_tests::twoPhaseProgram(8000);
    const auto r = pickSimPoint(p, 10'000, 4);
    EXPECT_GE(r.numPhases, 2u) << "phases must be distinguished";
    // The first and last intervals belong to different phases.
    ASSERT_GT(r.phaseOf.size(), 2u);
    EXPECT_NE(r.phaseOf.front(), r.phaseOf.back());
}

TEST(SimPoint, SyntheticBenchmarksAreStationary)
{
    // The bench harness's short measurement windows are justified by
    // the generated programs settling into one dominant phase.
    const isa::Program *prog = wload::cachedProgram(
        wload::profileByName("crafty"), false);
    const auto r = pickSimPoint(*prog, 50'000, 5, 24);
    EXPECT_GE(r.largestPhaseWeight, 0.5)
        << "dominant phase must cover most intervals";
}

TEST(SimPoint, Deterministic)
{
    const isa::Program *prog = wload::cachedProgram(
        wload::profileByName("gap"), false);
    const auto a = pickSimPoint(*prog, 40'000, 4, 16);
    const auto b = pickSimPoint(*prog, 40'000, 4, 16);
    EXPECT_EQ(a.intervalIndex, b.intervalIndex);
    EXPECT_EQ(a.numPhases, b.numPhases);
    EXPECT_EQ(a.phaseOf, b.phaseOf);
}
