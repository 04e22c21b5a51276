/**
 * @file
 * Repository benchmark driver: one iteration of one named workload in
 * a fresh process.
 *
 * An iteration is set-up (program generation, result-cache
 * preparation; repeated and reported as a median), a measured phase
 * that drives the simulator through its public entry points exactly as
 * the figure benches do, and a check phase that compares every
 * simulated result with the committed references in perfbench/refs/.
 * perfbench_driver prints one JSON object on stdout with the raw end-to-end
 * and per-layer numbers; perfbench/run.py repeats iterations for the
 * requested duration and reports medians. Every iteration is a new
 * process, so the per-process memos (program cache, path-length
 * oracle) start cold, as they do when a user reruns a bench.
 *
 * Workloads (see perfbench/README.md for why each exists):
 *   detailed_sweep  Figure 4-shaped detailed sweep, one batch per arch
 *   smt_rerun       Figure 7/8-shaped SMT rerun on a pre-filled cache
 *   sampled_sweep   sampled + SimPoint points, 22 profiles x 4 archs
 *
 * Usage:
 *   perfbench_driver --workload W --seed N --refs DIR --work DIR
 *                    [--trace 0|1] [--size full|tiny] [--regen]
 *
 * --regen simulates every point any seed can choose
 * without a cache and rewrites DIR/<workload>.txt.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cluster.hh"
#include "analysis/experiment.hh"
#include "analysis/pca.hh"
#include "analysis/runner.hh"
#include "analysis/simpoint.hh"
#include "analysis/workloads.hh"
#include "func/func_sim.hh"
#include "isa/bb_cache.hh"
#include "sim/logging.hh"
#include "stats/host_stats.hh"
#include "telemetry/chrome_trace.hh"
#include "trace/json.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

namespace fs = std::filesystem;
using namespace vca;
using analysis::Measurement;
using analysis::RunOptions;
using analysis::SimMode;
using analysis::SweepPoint;
using cpu::RenamerKind;

namespace {

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

double
nowS()
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now().time_since_epoch()).count();
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** measurementToJson() on one line (strings never hold raw newlines). */
std::string
compactJson(const Measurement &m)
{
    const std::string text = analysis::measurementToJson(m);
    std::string out;
    out.reserve(text.size());
    for (size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\n') {
            while (i + 1 < text.size() && text[i + 1] == ' ')
                ++i;
            continue;
        }
        out += text[i];
    }
    return out;
}

/** Linear-interpolated quantile q in [0,1]; 0 for an empty sample. */
double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * double(xs.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - double(lo));
}

double
median(const std::vector<double> &xs)
{
    return quantile(xs, 0.5);
}

/** Host CPU seconds (user + system, all threads) of this process. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

const char *
archLabel(RenamerKind kind)
{
    switch (kind) {
      case RenamerKind::Baseline:    return "baseline";
      case RenamerKind::ConvWindow:  return "regwindow";
      case RenamerKind::IdealWindow: return "ideal";
      case RenamerKind::Vca:         return "vca";
    }
    return "?";
}

const std::vector<RenamerKind> &
allArchs()
{
    static const std::vector<RenamerKind> archs = {
        RenamerKind::Baseline, RenamerKind::ConvWindow,
        RenamerKind::IdealWindow, RenamerKind::Vca};
    return archs;
}

/** Human label used in the reference files and mismatch reports. */
std::string
pointLabel(const SweepPoint &p)
{
    std::string s;
    for (const std::string &b : p.benches)
        s += (s.empty() ? "" : "+") + b;
    s += "/" + std::string(archLabel(p.kind)) + "/" +
         std::to_string(p.physRegs) + "/" +
         analysis::simModeName(p.opts.mode);
    if (p.windowed && p.kind == RenamerKind::Baseline)
        s += "/win";
    if (!p.windowed && p.kind != RenamerKind::Baseline)
        s += "/flat";
    s += "/w" + std::to_string(p.opts.warmupInsts) + "/m" +
         std::to_string(p.opts.measureInsts);
    if (p.opts.stopOnFirstThread)
        s += "/first";
    return s;
}

// ---------------------------------------------------------------------
// Spans: the benchmark's own in-memory trace of the calls it makes
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    std::string layer; ///< layer its self time is charged to
    double start = 0;
    double dur = 0;
    long parent = -1;  ///< index of the enclosing span, -1 at top level
};

class Spans
{
  public:
    explicit Spans(bool on) : on_(on) {}

    class Scope
    {
      public:
        Scope(Spans &s, std::string name, std::string layer)
            : s_(s), idx_(s.open(std::move(name), std::move(layer)))
        {}
        ~Scope() { s_.close(idx_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &s_;
        long idx_;
    };

    const std::vector<Span> &all() const { return spans_; }

  private:
    long
    open(std::string name, std::string layer)
    {
        if (!on_)
            return -1;
        spans_.push_back(Span{std::move(name), std::move(layer), nowS(),
                              0, open_.empty() ? -1 : open_.back()});
        open_.push_back(long(spans_.size() - 1));
        return open_.back();
    }

    void
    close(long idx)
    {
        if (idx < 0)
            return;
        spans_[size_t(idx)].dur = nowS() - spans_[size_t(idx)].start;
        open_.pop_back();
    }

    bool on_;
    std::vector<long> open_; ///< indices of the spans still open
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Reference data (perfbench/refs/<workload>.txt)
//
// Line-oriented text, one record per line:
//   m   <pointHash> <label> <measurement JSON>   expected Measurement
//   d   <pointHash> <label> <digest> <ok> <cycles> <insts> <ipc>
//       expected Measurement by its digest (FNV-1a of the JSON), for
//       points the benchmark only checks and never has to restore
//   ipc <pointHash> <label> <value>   detailed IPC over a point's span
//   cov <pointHash> <label> <value>   instructions a point stands for
//   sel <name> <a+b,c+d,...>          expected SMT workload selection
// ---------------------------------------------------------------------

/** FNV-1a 64 of a Measurement's one-line JSON: its identity. */
std::string
digest(const Measurement &m)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : compactJson(m)) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return hex(h);
}

struct Refs
{
    std::map<std::string, std::string> meas;
    std::map<std::string, std::string> digests; ///< "d" record tails
    std::map<std::string, double> ipc;
    std::map<std::string, double> cov;
    std::map<std::string, std::string> sel;
    std::map<std::string, std::string> labels;

    bool
    load(const std::string &path)
    {
        std::ifstream is(path);
        if (!is)
            return false;
        std::string line;
        while (std::getline(is, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream ls(line);
            std::string kind, key, label;
            ls >> kind >> key;
            if (kind == "sel") {
                ls >> sel[key];
                continue;
            }
            ls >> label;
            labels[key] = label;
            if (kind == "m") {
                std::string rest;
                std::getline(ls, rest);
                meas[key] = rest.substr(rest.find_first_not_of(' '));
            } else if (kind == "d") {
                std::string rest;
                std::getline(ls, rest);
                digests[key] = rest.substr(rest.find_first_not_of(' '));
            } else if (kind == "ipc") {
                ls >> ipc[key];
            } else if (kind == "cov") {
                ls >> cov[key];
            }
        }
        return true;
    }

    void
    save(const std::string &path, const std::string &header) const
    {
        std::ofstream os(path);
        os << header;
        for (const auto &[k, v] : sel)
            os << "sel " << k << " " << v << "\n";
        char buf[64];
        for (const auto &[k, v] : ipc) {
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            os << "ipc " << k << " " << labels.at(k) << " " << buf << "\n";
        }
        for (const auto &[k, v] : cov) {
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            os << "cov " << k << " " << labels.at(k) << " " << buf << "\n";
        }
        for (const auto &[k, v] : digests)
            os << "d " << k << " " << labels.at(k) << " " << v << "\n";
        for (const auto &[k, v] : meas)
            os << "m " << k << " " << labels.at(k) << " " << v << "\n";
    }

    /** The "d" record tail for a result. */
    static std::string
    digestRecord(const Measurement &m)
    {
        char buf[128];
        std::snprintf(buf, sizeof(buf), " %d %llu %llu %.17g",
                      m.ok ? 1 : 0, (unsigned long long)m.cycles,
                      (unsigned long long)m.insts, m.ipc);
        return digest(m) + buf;
    }

    /** True when the reference for @p key is exactly @p m; sets
     *  @p found when any reference exists. */
    bool
    matches(const std::string &key, const Measurement &m,
            bool &found) const
    {
        if (const auto it = meas.find(key); it != meas.end()) {
            found = true;
            return analysis::measurementFromJson(it->second) == m;
        }
        if (const auto it = digests.find(key); it != digests.end()) {
            found = true;
            return it->second == digestRecord(m);
        }
        found = false;
        return false;
    }

    /** Record a result in full (restorable) or by digest. */
    void
    put(const SweepPoint &p, const Measurement &m, bool full)
    {
        const std::string k = hex(analysis::pointHash(p));
        if (full)
            meas[k] = compactJson(m);
        else
            digests[k] = digestRecord(m);
        labels[k] = pointLabel(p);
    }
};

std::string
joinSelection(const std::vector<std::vector<std::string>> &ws)
{
    std::string out;
    for (const auto &w : ws) {
        if (!out.empty())
            out += ",";
        for (size_t i = 0; i < w.size(); ++i)
            out += (i ? "+" : "") + w[i];
    }
    return out;
}

std::vector<std::vector<std::string>>
splitSelection(const std::string &text)
{
    std::vector<std::vector<std::string>> out;
    std::stringstream ws(text);
    std::string item;
    while (std::getline(ws, item, ',')) {
        std::vector<std::string> w;
        std::stringstream bs(item);
        std::string b;
        while (std::getline(bs, b, '+'))
            w.push_back(b);
        out.push_back(w);
    }
    return out;
}

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

struct Batch
{
    std::string name;
    std::vector<SweepPoint> points;
};

constexpr unsigned kVariants = 4; ///< sampled_sweep's seed variants
constexpr unsigned kSetupReps = 3; ///< set-ups per iteration (median)

unsigned
regsFor(RenamerKind kind)
{
    return kind == RenamerKind::Vca ? 192 : 256;
}

// detailed_sweep ------------------------------------------------------

/** Fisher-Yates shuffle keyed by the seed (same seed, same order). */
void
shuffle(std::vector<SweepPoint> &points, std::uint64_t seed)
{
    std::uint64_t state = splitmix64(seed);
    for (size_t i = points.size(); i > 1; --i) {
        state = splitmix64(state);
        std::swap(points[i - 1], points[state % i]);
    }
}

/** Figure 4 at the figure benches' per-point budget (bench_common.hh
 *  defaultOptions(): 15k warm-up, 150k measured). The seed shuffles
 *  the order in which each batch submits its points: the same work,
 *  scheduled differently on the pool. */
std::vector<Batch>
detailedBatches(bool tiny, std::uint64_t seed)
{
    RunOptions opts;
    std::vector<std::string> benches;
    std::vector<unsigned> sizes;
    if (tiny) {
        // Exactly the golden sweep's single-thread points
        // (tests/golden/sweep.json), so the references cross-check.
        opts.warmupInsts = 2'000;
        opts.measureInsts = 20'000;
        benches = {"crafty"};
        sizes = {64, 128, 192};
    } else {
        opts.warmupInsts = 15'000;
        opts.measureInsts = 150'000;
        for (const auto &p : wload::regWindowProfiles())
            benches.push_back(p.name);
        sizes = {64, 128, 192, 256};
    }
    std::vector<Batch> batches;
    for (RenamerKind kind : allArchs()) {
        Batch b{archLabel(kind), {}};
        for (unsigned regs : sizes)
            for (const auto &name : benches)
                b.points.push_back(
                    analysis::makePoint(name, kind, regs, opts));
        shuffle(b.points, seed);
        batches.push_back(std::move(b));
    }
    return batches;
}

// sampled_sweep -------------------------------------------------------

/** tests/test_accuracy.cc sampledOpts(), with the seed variant moving
 *  the first sample by 1k instructions per step. */
RunOptions
sampledOpts(unsigned variant)
{
    RunOptions o;
    o.mode = SimMode::Sampled;
    o.warmupInsts = 240'000 + 1'000 * variant;
    o.samplePeriodInsts = 10'000;
    o.sampleQuantumInsts = 2'000;
    o.sampleDetailWarmInsts = 3'000;
    o.measureInsts = 48'000;
    return o;
}

/** The detailed run over exactly the instructions a sampled point's
 *  samples cover (the accuracy tier's matched span). */
RunOptions
matchedDetailedOpts(unsigned variant)
{
    RunOptions o;
    o.warmupInsts = 250'000 + 1'000 * variant;
    o.measureInsts = 240'000;
    return o;
}

RunOptions
simpointOpts()
{
    RunOptions o;
    o.mode = SimMode::SimPoint;
    o.warmupInsts = 20'000;
    o.measureInsts = 60'000;
    return o;
}

/** SimPoint's reference: steady state from past the cold-start
 *  transient to program end. */
RunOptions
fullProgramOpts()
{
    RunOptions o;
    o.warmupInsts = 240'000;
    o.measureInsts = 5'000'000;
    return o;
}

std::vector<Batch>
sampledBatches(bool tiny, unsigned variant)
{
    Batch sampled{"sampled", {}}, simpoint{"simpoint", {}};
    if (tiny) {
        // Variant 0 crafty points are tests/golden/sampled.json's; the
        // art/regwindow SimPoint point is a known defect ("program
        // halted during fast-forward") and must count as a failure.
        for (RenamerKind kind : allArchs()) {
            sampled.points.push_back(analysis::makePoint(
                "crafty", kind, regsFor(kind), sampledOpts(0)));
        }
        simpoint.points.push_back(analysis::makePoint(
            "crafty", RenamerKind::Vca, 192, simpointOpts()));
        simpoint.points.push_back(analysis::makePoint(
            "art", RenamerKind::ConvWindow, 256, simpointOpts()));
    } else {
        for (const auto &prof : wload::spec2000Profiles()) {
            for (RenamerKind kind : allArchs()) {
                sampled.points.push_back(analysis::makePoint(
                    prof.name, kind, regsFor(kind), sampledOpts(variant)));
                simpoint.points.push_back(analysis::makePoint(
                    prof.name, kind, regsFor(kind), simpointOpts()));
            }
        }
    }
    return {sampled, simpoint};
}

/** The detailed reference point for a sampled/simpoint point. */
SweepPoint
referencePoint(const SweepPoint &p, unsigned variant)
{
    SweepPoint r = p;
    r.opts = p.opts.mode == SimMode::Sampled ? matchedDetailedOpts(variant)
                                             : fullProgramOpts();
    return r;
}

// smt_rerun -----------------------------------------------------------

analysis::SelectionOptions
selectionOpts(bool tiny)
{
    analysis::SelectionOptions s;
    if (tiny) {
        s.numTwoThread = 2;
        s.numFourThread = 1;
        s.statInsts = 1'000;
    } else {
        // bench_common.cc benchWorkloads(), as Figures 7 and 8 run it.
        s.numTwoThread = 8;
        s.numFourThread = 6;
        s.statInsts = 25'000;
    }
    return s;
}

RunOptions
smtOpts(bool tiny)
{
    RunOptions o; // full: bench_common.hh defaultOptions()
    o.warmupInsts = tiny ? 1'000 : 15'000;
    o.measureInsts = tiny ? 5'000 : 150'000;
    return o;
}

/** bench/bench_common.cc smtPoint(): the SMT methodology point. */
SweepPoint
smtPoint(const std::vector<std::string> &benches, RenamerKind kind,
         unsigned regs, bool windowed, const RunOptions &base)
{
    SweepPoint p;
    p.benches = benches;
    p.windowed = windowed;
    p.kind = kind;
    p.physRegs = regs;
    p.opts = base;
    p.opts.stopOnFirstThread = true;
    return p;
}

/** The rerun's batches, built from a workload selection exactly as
 *  bench_fig7_smt / bench_fig8_smt_windows build theirs. */
std::vector<Batch>
smtBatches(bool tiny, const analysis::WorkloadSelection &sel)
{
    const RunOptions opts = smtOpts(tiny);
    const std::vector<unsigned> sizes = tiny
        ? std::vector<unsigned>{192, 256}
        : std::vector<unsigned>{64, 128, 192, 256, 320, 384, 448};

    Batch ref{"ref1t", {}};
    RunOptions refOpts = opts;
    refOpts.stopOnFirstThread = false;
    refOpts.numThreads = 1;
    for (const auto &prof : wload::spec2000Profiles()) {
        if (tiny && prof.name != "crafty" && prof.name != "mesa")
            continue;
        ref.points.push_back(analysis::makePoint(
            prof.name, RenamerKind::Baseline, 256, refOpts));
    }

    auto grid = [&](Batch &b, RenamerKind kind, bool windowed,
                    const std::vector<std::vector<std::string>> &ws) {
        for (unsigned regs : sizes)
            for (const auto &w : ws)
                b.points.push_back(smtPoint(w, kind, regs, windowed, opts));
    };

    Batch fig7{"fig7", {}};
    for (RenamerKind kind : {RenamerKind::Baseline, RenamerKind::Vca}) {
        grid(fig7, kind, false, sel.twoThread);
        grid(fig7, kind, false, sel.fourThread);
    }

    std::vector<std::vector<std::string>> oneThread;
    if (!tiny) {
        for (const auto &prof : wload::regWindowProfiles())
            oneThread.push_back({prof.name});
    }
    Batch fig8{"fig8", {}};
    grid(fig8, RenamerKind::Baseline, false, oneThread);
    grid(fig8, RenamerKind::Baseline, false, sel.twoThread);
    grid(fig8, RenamerKind::Baseline, false, sel.fourThread);
    grid(fig8, RenamerKind::Vca, true, oneThread);
    grid(fig8, RenamerKind::Vca, true, sel.twoThread);
    grid(fig8, RenamerKind::Vca, true, sel.fourThread);
    for (const auto &w : sel.fourThread) {
        fig8.points.push_back(
            smtPoint(w, RenamerKind::Vca, 192, false, opts));
        fig8.points.push_back(
            smtPoint(w, RenamerKind::Vca, 192, true, opts));
        fig8.points.push_back(
            smtPoint(w, RenamerKind::Baseline, 448, false, opts));
    }
    return {ref, fig7, fig8};
}

/** Unique points of a batch list, keyed by hash (first occurrence). */
std::map<std::uint64_t, const SweepPoint *>
uniquePoints(const std::vector<Batch> &batches)
{
    std::map<std::uint64_t, const SweepPoint *> out;
    for (const Batch &b : batches)
        for (const SweepPoint &p : b.points)
            out.emplace(analysis::pointHash(p), &p);
    return out;
}

/**
 * The seed's uncached share: 1 in 20 of the unique points of every
 * stratum (batch x architecture x ABI x thread count), ranked by a
 * seed-keyed hash. Every seed leaves another subset uncached, but the
 * same number of points of each kind, so the rerun's cost hardly
 * depends on the seed.
 */
std::set<std::uint64_t>
uncachedShare(const std::vector<Batch> &batches, std::uint64_t seed)
{
    std::map<std::string, std::vector<std::pair<std::uint64_t,
                                                std::uint64_t>>> strata;
    std::set<std::uint64_t> seen;
    for (const Batch &b : batches) {
        for (const SweepPoint &p : b.points) {
            const std::uint64_t h = analysis::pointHash(p);
            if (!seen.insert(h).second)
                continue;
            const std::string stratum = b.name + "/" + archLabel(p.kind) +
                (p.windowed ? "/win/" : "/flat/") +
                std::to_string(p.benches.size());
            strata[stratum].emplace_back(splitmix64(h ^ splitmix64(seed)),
                                         h);
        }
    }
    std::set<std::uint64_t> out;
    for (auto &[name, ranked] : strata) {
        std::sort(ranked.begin(), ranked.end());
        const size_t n = (ranked.size() + 19) / 20;
        for (size_t i = 0; i < n; ++i)
            out.insert(ranked[i].second);
    }
    return out;
}

/** Every program (profile x ABI) the workload's points execute. */
std::vector<std::pair<std::string, bool>>
programsOf(const std::vector<Batch> &batches)
{
    std::set<std::pair<std::string, bool>> seen;
    for (const Batch &b : batches)
        for (const SweepPoint &p : b.points)
            for (const std::string &name : p.benches)
                seen.emplace(name, p.windowed);
    return {seen.begin(), seen.end()};
}

// ---------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    bool trace = false;
    bool tiny = false;
    bool regen = false;
    std::string refs = "perfbench/refs";
    std::string work = ".bench_build/perfbench-work";
    unsigned jobs = 1; ///< worker threads
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "perfbench_driver: %s\n", msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = val();
        else if (k == "--seed")
            a.seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (k == "--trace")
            a.trace = val() != "0";
        else if (k == "--size")
            a.tiny = val() == "tiny";
        else if (k == "--refs")
            a.refs = val();
        else if (k == "--work")
            a.work = val();
        else if (k == "--regen")
            a.regen = true;
        else
            usage(("unknown argument " + k).c_str());
    }
    if (a.workload != "detailed_sweep" && a.workload != "smt_rerun" &&
        a.workload != "sampled_sweep")
        usage("--workload must be detailed_sweep, smt_rerun or "
              "sampled_sweep");
    // Half the cores (at most 4): on a shared host the other half
    // absorbs neighbours' load, which otherwise stretches wall time
    // (measured: 2-9% wall inflation over CPU time with 2 of 4 cores
    // busy, 9-25% with all 4).
    a.jobs = std::max(1u, std::min(4u, std::thread::hardware_concurrency()) /
                              2);
    return a;
}

std::string
refsPath(const Args &a)
{
    return a.refs + "/" + a.workload + ".txt";
}

analysis::SweepConfig
sweepConfig(unsigned jobs, const std::string &cacheDir)
{
    analysis::SweepConfig c;
    c.jobs = jobs;
    c.cacheDir = cacheDir;
    c.robust = analysis::RobustConfig();
    return c;
}

// ---------------------------------------------------------------------
// Reference regeneration
// ---------------------------------------------------------------------

int
regenerate(const Args &a)
{
    Refs refs;
    analysis::SweepRunner runner(sweepConfig(a.jobs, ""));
    auto runAll = [&](const std::vector<SweepPoint> &pts) {
        std::vector<SweepPoint> todo;
        std::set<std::uint64_t> seen;
        for (const SweepPoint &p : pts)
            if (seen.insert(analysis::pointHash(p)).second)
                todo.push_back(p);
        const auto ms = runner.run(todo);
        // smt_rerun's set-up restores its references into the cache.
        for (size_t i = 0; i < todo.size(); ++i)
            refs.put(todo[i], ms[i], a.workload == "smt_rerun");
        return std::make_pair(todo, ms);
    };

    for (bool tiny : {true, false}) {
        const std::string size = tiny ? "tiny" : "full";
        if (a.workload == "detailed_sweep") {
            std::vector<SweepPoint> pts;
            for (const Batch &b : detailedBatches(tiny, 0))
                pts.insert(pts.end(), b.points.begin(), b.points.end());
            runAll(pts);
        } else if (a.workload == "smt_rerun") {
            const auto sel = analysis::selectWorkloads(selectionOpts(tiny));
            refs.sel["2t." + size] = joinSelection(sel.twoThread);
            refs.sel["4t." + size] = joinSelection(sel.fourThread);
            std::vector<SweepPoint> pts;
            for (const Batch &b : smtBatches(tiny, sel))
                pts.insert(pts.end(), b.points.begin(), b.points.end());
            runAll(pts);
        } else {
            std::vector<SweepPoint> pts, refPts;
            for (unsigned v = 0; v < (tiny ? 1 : kVariants); ++v)
                for (const Batch &b : sampledBatches(tiny, v))
                    for (const SweepPoint &p : b.points) {
                        pts.push_back(p);
                        refPts.push_back(referencePoint(p, v));
                    }
            runAll(pts);
            const auto [done, ms] = runAll(refPts);
            std::map<std::uint64_t, double> ipcOf;
            for (size_t i = 0; i < done.size(); ++i)
                ipcOf[analysis::pointHash(done[i])] = ms[i].ipc;
            for (size_t i = 0; i < pts.size(); ++i) {
                const std::string k = hex(analysis::pointHash(pts[i]));
                refs.labels[k] = pointLabel(pts[i]);
                refs.ipc[k] = ipcOf.at(analysis::pointHash(refPts[i]));
                const SweepPoint &p = pts[i];
                if (p.opts.mode == SimMode::SimPoint) {
                    refs.cov[k] = double(analysis::pathLength(
                        wload::profileByName(p.benches[0]), p.windowed));
                }
            }
            // The detailed reference runs are not part of the workload.
            for (const SweepPoint &r : refPts)
                refs.digests.erase(hex(analysis::pointHash(r)));
        }
    }
    fs::create_directories(a.refs);
    refs.save(refsPath(a),
              "# Expected results for perfbench workload " + a.workload +
              " (" + analysis::kSimVersionTag + ").\n"
              "# Regenerate: python3 perfbench/run.py --regen --workload " +
              a.workload + "\n");
    std::fprintf(stderr, "wrote %s (%zu measurements)\n",
                 refsPath(a).c_str(),
                 refs.meas.size() + refs.digests.size());
    return 0;
}

// ---------------------------------------------------------------------
// One benchmark iteration
// ---------------------------------------------------------------------

/** Accumulates everything the iteration reports. */
struct Report
{
    std::map<std::string, double> e2e;
    std::map<std::string, double> layer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;    ///< disagreed with the reference
    std::uint64_t errored = 0;   ///< simulator error (known defects)
    std::vector<std::string> mismatches;

    void
    mismatch(const std::string &what)
    {
        ++failed;
        if (mismatches.size() < 20)
            mismatches.push_back(what);
    }
};

struct BatchResult
{
    std::string name;
    double start = 0, wall = 0;
    double simSec = 0, simInsts = 0, simCycles = 0;
    double funcSec = 0, funcInsts = 0;
    std::vector<Measurement> results;
};

/** Run one batch through the runner, timed from outside. */
BatchResult
runBatch(analysis::SweepRunner &runner, const Batch &b, Spans &spans)
{
    auto &host = stats::HostStats::global();
    BatchResult r;
    r.name = b.name;
    const double s0 = host.simSeconds.value(), i0 = host.simInsts.value();
    const double c0 = host.simCycles.value();
    const double f0 = host.funcSeconds.value();
    const double fi0 = host.funcInsts.value();
    Spans::Scope span(spans, "analysis.batch." + b.name, "batch");
    r.start = nowS();
    r.results = runner.run(b.points);
    r.wall = nowS() - r.start;
    r.simSec = host.simSeconds.value() - s0;
    r.simInsts = host.simInsts.value() - i0;
    r.simCycles = host.simCycles.value() - c0;
    r.funcSec = host.funcSeconds.value() - f0;
    r.funcInsts = host.funcInsts.value() - fi0;
    return r;
}

/** Runner host lanes, read back from the written Chrome trace. */
struct Lane
{
    bool hit = false;
    std::string arch;
    double start = 0, dur = 0; ///< seconds on the nowS() clock
};

std::vector<Lane>
readLanes(const std::string &path, double epochS)
{
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    const trace::JsonValue doc = trace::JsonValue::parse(ss.str());
    const trace::JsonValue *events = doc.find("traceEvents");
    std::vector<Lane> lanes;
    if (!events)
        return lanes;
    std::map<int, std::vector<std::pair<std::string, double>>> open;
    for (size_t i = 0; i < events->size(); ++i) {
        const trace::JsonValue &e = events->at(i);
        const auto *ph = e.find("ph");
        const auto *pid = e.find("pid");
        if (!ph || !pid || pid->asNumber() != 100)
            continue;
        const int tid = int(e.find("tid")->asNumber());
        const double ts = e.find("ts")->asNumber();
        if (ph->asString() == "B") {
            open[tid].emplace_back(e.find("name")->asString(), ts);
        } else if (ph->asString() == "E" && !open[tid].empty()) {
            const auto [name, t0] = open[tid].back();
            open[tid].pop_back();
            Lane l;
            l.hit = name.rfind("hit ", 0) == 0;
            // "<hit|sim> <benches>/<renamer kind name>/<regs>"
            const size_t last = name.rfind('/');
            const size_t prev = name.rfind('/', last - 1);
            const std::string kind = name.substr(prev + 1, last - prev - 1);
            for (RenamerKind k : allArchs())
                if (kind == cpu::renamerKindName(k))
                    l.arch = archLabel(k);
            l.start = epochS + t0 / 1e6;
            l.dur = (ts - t0) / 1e6;
            lanes.push_back(l);
        }
    }
    return lanes;
}

class Iteration
{
  public:
    explicit Iteration(const Args &a) : a_(a), spans_(a.trace) {}

    int
    run()
    {
        if (!refs_.load(refsPath(a_))) {
            std::fprintf(stderr, "perfbench_driver: no references at %s\n",
                         refsPath(a_).c_str());
            return 1;
        }
        fs::remove_all(a_.work);
        fs::create_directories(a_.work);
        variant_ = unsigned(a_.seed % kVariants);

        setup();
        if (a_.trace) {
            tw_ = std::make_unique<telemetry::ChromeTraceWriter>(
                a_.work + "/trace.json");
            traceEpoch_ = nowS() - tw_->hostNowUs() / 1e6;
            runner_->setTraceWriter(tw_.get());
        }

        const std::uint64_t calls0 = analysis::runTimingCallCount();
        const double cpu0 = cpuSeconds();
        const double t0 = nowS();
        if (a_.workload == "smt_rerun")
            measureSmt();
        else
            measureBatches();
        wall_ = nowS() - t0;
        rep_.e2e["cpu_s"] = cpuSeconds() - cpu0;
        runTimingCalls_ = analysis::runTimingCallCount() - calls0;
        runner_->setTraceWriter(nullptr);

        check();
        rep_.e2e["wall_s"] = wall_;
        rep_.e2e["peak_rss_mb"] = peakRssMb();
        if (a_.trace) {
            probes();
            traceMetrics();
        }
        print();
        return 0;
    }

  private:
    // -- set-up ---------------------------------------------------------

    void
    setup()
    {
        // The point lists the measured phase will submit. smt_rerun's
        // depend on workload selection, which is measured work: set-up
        // uses the committed selection instead.
        if (a_.workload == "detailed_sweep") {
            batches_ = detailedBatches(a_.tiny, a_.seed);
        } else if (a_.workload == "sampled_sweep") {
            batches_ = sampledBatches(a_.tiny, variant_);
        } else {
            const std::string size = a_.tiny ? "tiny" : "full";
            analysis::WorkloadSelection sel;
            sel.twoThread = splitSelection(refs_.sel["2t." + size]);
            sel.fourThread = splitSelection(refs_.sel["4t." + size]);
            batches_ = smtBatches(a_.tiny, sel);
            uncached_ = uncachedShare(batches_, a_.seed);
        }
        const auto programs = setupPrograms();

        // The input state, prepared once and not timed: an empty result
        // cache, or for smt_rerun the cache a previous figure run left
        // behind. A user's rerun does not pay for it.
        cacheDir_ = a_.work + "/cache";
        fs::create_directories(cacheDir_);
        if (a_.workload == "smt_rerun")
            prefillCache();

        std::vector<double> setupS, genS;
        for (unsigned rep = 0; rep < kSetupReps; ++rep) {
            const double t0 = nowS();
            // Program generation: the first repetition fills the
            // process-wide program cache the measured phase uses; later
            // ones regenerate the same programs uncached.
            for (const auto &[name, windowed] : programs) {
                const auto &prof = wload::profileByName(name);
                if (rep == 0) {
                    wload::cachedProgram(prof, windowed);
                } else {
                    const isa::Program p =
                        wload::generateProgram(prof, windowed);
                    sink_ += p.size();
                }
            }
            const double gen = nowS() - t0;
            // The runner: its worker pool and result cache.
            auto runner = std::make_unique<analysis::SweepRunner>(
                sweepConfig(a_.jobs, cacheDir_));
            setupS.push_back(nowS() - t0);
            genS.push_back(gen);
            runner_ = std::move(runner);
        }
        rep_.e2e["setup_s"] = median(setupS);
        rep_.layer["wload.gen_s"] = median(genS);
    }

    /** The programs set-up generates: those the batches run, plus,
     *  for smt_rerun, every profile under both ABIs (its oracle and
     *  workload selection cover them all). */
    std::vector<std::pair<std::string, bool>>
    setupPrograms() const
    {
        auto progs = programsOf(batches_);
        if (a_.workload != "smt_rerun")
            return progs;
        std::set<std::pair<std::string, bool>> all(progs.begin(),
                                                    progs.end());
        for (const auto &prof : wload::spec2000Profiles())
            for (bool w : {false, true})
                all.emplace(prof.name, w);
        return {all.begin(), all.end()};
    }

    /** Store the committed reference of every point outside the seed's
     *  uncached share: the cache a previous figure run left behind. */
    void
    prefillCache()
    {
        analysis::ResultCache cache(cacheDir_);
        for (const auto &[h, p] : uniquePoints(batches_)) {
            if (uncached_.count(h))
                continue;
            const auto it = refs_.meas.find(hex(h));
            if (it == refs_.meas.end())
                continue; // checked (and failed) in check()
            cache.store(*p, analysis::measurementFromJson(it->second));
        }
    }

    // -- measured phases ------------------------------------------------

    /** detailed_sweep and sampled_sweep: their batches, in order. */
    void
    measureBatches()
    {
        for (const Batch &b : batches_)
            results_.push_back(runBatch(*runner_, b, spans_));
    }

    void
    measureSmt()
    {
        analysis::WorkloadSelection sel;
        const analysis::SelectionOptions so = selectionOpts(a_.tiny);
        {
            Spans::Scope span(spans_, "analysis.select", "analysis");
            const double t0 = nowS();
            sel = analysis::selectWorkloads(so);
            rep_.layer["analysis.select_s"] = nowS() - t0;
            rep_.layer["analysis.select_runs"] = double(
                sel.twoThreadCandidates + sel.fourThreadCandidates);
        }
        selected_ = sel;
        {
            Spans::Scope span(spans_, "func.oracle", "func");
            const double t0 = nowS();
            double insts = 0;
            for (const auto &prof : wload::spec2000Profiles()) {
                if (a_.tiny && prof.name != "crafty" &&
                    prof.name != "mesa")
                    continue;
                for (bool w : {false, true})
                    insts += double(analysis::pathLength(prof, w));
            }
            rep_.layer["func.oracle_s"] = nowS() - t0;
            rep_.layer["func.oracle_insts"] = insts;
        }
        // The figures' point lists come from the selection just made.
        measuredBatches_ = smtBatches(a_.tiny, sel);
        for (const Batch &b : measuredBatches_)
            results_.push_back(runBatch(*runner_, b, spans_));
        // Weighted speedups, as the figure benches print them.
        Spans::Scope span(spans_, "analysis.speedup", "analysis");
        std::map<std::string, double> ref1t;
        const Batch &refBatch = measuredBatches_[0];
        for (size_t i = 0; i < refBatch.points.size(); ++i) {
            const Measurement &m = results_[0].results[i];
            const auto &prof =
                wload::profileByName(refBatch.points[i].benches[0]);
            if (m.ok)
                ref1t[prof.name] = analysis::executionTime(
                    prof, RenamerKind::Baseline, m);
        }
        for (size_t b = 1; b < measuredBatches_.size(); ++b) {
            for (size_t i = 0; i < measuredBatches_[b].points.size(); ++i) {
                const SweepPoint &p = measuredBatches_[b].points[i];
                const Measurement &m = results_[b].results[i];
                if (!m.ok)
                    continue;
                double speedup = 0;
                for (size_t t = 0; t < p.benches.size(); ++t) {
                    const auto &prof = wload::profileByName(p.benches[t]);
                    const double exec = m.threadCpi[t] * double(
                        analysis::pathLength(prof, p.windowed));
                    if (exec > 0 && ref1t.count(prof.name))
                        speedup += ref1t[prof.name] / exec;
                }
                sink_ += speedup;
            }
        }
    }

    // -- checks and end-to-end metrics ------------------------------------

    const std::vector<Batch> &
    submitted() const
    {
        return measuredBatches_.empty() ? batches_ : measuredBatches_;
    }

    void
    check()
    {
        const auto &batches = submitted();
        if (a_.workload == "smt_rerun") {
            const std::string size = a_.tiny ? "tiny" : "full";
            if (joinSelection(selected_.twoThread) != refs_.sel["2t." + size])
                rep_.mismatch("two-thread selection differs: " +
                              joinSelection(selected_.twoThread));
            if (joinSelection(selected_.fourThread) !=
                refs_.sel["4t." + size])
                rep_.mismatch("four-thread selection differs: " +
                              joinSelection(selected_.fourThread));
            // Workload-selection profiling runs build their cores
            // directly, so runTiming() runs exactly once per uncached
            // point: nothing is re-simulated unseen.
            std::set<std::uint64_t> misses;
            for (const auto &[h, p] : uniquePoints(batches))
                if (uncached_.count(h))
                    misses.insert(h);
            if (runTimingCalls_ != misses.size())
                rep_.mismatch("runTiming() ran " +
                              std::to_string(runTimingCalls_) +
                              " times for " +
                              std::to_string(misses.size()) +
                              " uncached points");
        }

        double sampledErr = 0, simpointErr = 0, covered = 0;
        unsigned sampledN = 0, simpointN = 0, coverN = 0;
        std::uint64_t badPoints = 0; ///< errored or unlike the reference
        for (size_t b = 0; b < batches.size(); ++b) {
            for (size_t i = 0; i < batches[b].points.size(); ++i) {
                const SweepPoint &p = batches[b].points[i];
                const Measurement &m = results_[b].results[i];
                const std::string k = hex(analysis::pointHash(p));
                ++rep_.attempted;
                // Failures: simulator errors and infrastructure faults.
                // A detailed configuration that cannot operate (the
                // paper's baseline below 64 x threads registers) is a
                // result, not a failure.
                const bool cannotOperate = !m.ok && !m.infra &&
                    p.opts.mode == SimMode::Detailed;
                const bool errored = !m.ok && !cannotOperate;
                rep_.errored += errored;
                bool found = false;
                const bool same = refs_.matches(k, m, found);
                if (!found)
                    rep_.mismatch("no reference for " + pointLabel(p));
                else if (!same)
                    rep_.mismatch("result differs from reference: " +
                                  pointLabel(p));
                badPoints += errored || !same;
                if (!same || !m.ok || p.opts.mode == SimMode::Detailed)
                    continue;
                const auto ri = refs_.ipc.find(k);
                if (ri == refs_.ipc.end() || ri->second <= 0) {
                    rep_.mismatch("no detailed IPC reference for " +
                                  pointLabel(p));
                    continue;
                }
                const double err =
                    100.0 * std::abs(m.ipc - ri->second) / ri->second;
                if (p.opts.mode == SimMode::Sampled) {
                    sampledErr += err;
                    ++sampledN;
                    ++coverN;
                    if (ri->second >= m.sampling.ipcCiLo() &&
                        ri->second <= m.sampling.ipcCiHi())
                        covered += 1;
                } else {
                    simpointErr += err;
                    ++simpointN;
                }
            }
        }
        rep_.layer["failed_frac"] =
            double(badPoints) / double(rep_.attempted);
        rep_.e2e["ok_frac"] = 1.0 - rep_.layer["failed_frac"];
        rep_.layer["ipc_err_pct.sampled"] =
            sampledN ? sampledErr / sampledN : 0;
        rep_.layer["ipc_err_pct.simpoint"] =
            simpointN ? simpointErr / simpointN : 0;
        rep_.layer["ci_cover_frac"] = coverN ? covered / coverN : 0;

        // Throughput per batch, timed from outside.
        for (size_t b = 0; b < batches.size(); ++b) {
            const BatchResult &r = results_[b];
            rep_.layer["analysis.batch_s." + r.name] = r.wall;
            if (a_.workload == "detailed_sweep") {
                rep_.layer["mips." + r.name] = r.simInsts / r.wall / 1e6;
                if (r.simCycles > 0)
                    rep_.layer["cpu.ns_per_cycle." + r.name] =
                        r.simSec / r.simCycles * 1e9;
            } else if (a_.workload == "sampled_sweep") {
                double insts = 0;
                for (size_t i = 0; i < batches[b].points.size(); ++i) {
                    const SweepPoint &p = batches[b].points[i];
                    const Measurement &m = r.results[i];
                    if (!m.ok)
                        continue;
                    const std::string k = hex(analysis::pointHash(p));
                    insts += p.opts.mode == SimMode::Sampled
                        ? double(m.sampling.samples) *
                              double(p.opts.samplePeriodInsts)
                        : refs_.cov[k];
                }
                rep_.layer["covered_mips." + r.name] = insts / r.wall / 1e6;
            }
        }
    }

    // -- traced run: per-layer numbers ------------------------------------

    /** Points this iteration actually simulated (cache misses). */
    std::vector<std::pair<const SweepPoint *, const Measurement *>>
    simulatedPoints() const
    {
        std::vector<std::pair<const SweepPoint *, const Measurement *>> out;
        std::set<std::uint64_t> seen;
        const auto &batches = submitted();
        for (size_t b = 0; b < batches.size(); ++b)
            for (size_t i = 0; i < batches[b].points.size(); ++i) {
                const SweepPoint &p = batches[b].points[i];
                const std::uint64_t h = analysis::pointHash(p);
                if (a_.workload == "smt_rerun" && !uncached_.count(h))
                    continue;
                if (seen.insert(h).second)
                    out.emplace_back(&p, &results_[b].results[i]);
            }
        return out;
    }

    void
    probes()
    {
        auto &L = rep_.layer;
        const auto sims = simulatedPoints();

        // Detailed-model counters of the simulated points.
        double cycles = 0, insts = 0, dacc = 0, conflict = 0, astq = 0;
        double tagValid = 0, occupancy = 0, detailInsts = 0;
        unsigned nSampled = 0;
        for (const auto &[p, m] : sims) {
            if (!m->ok)
                continue;
            cycles += double(m->cycles);
            insts += double(m->insts);
            dacc += m->dcacheAccesses;
            for (const auto &[name, v] : m->counters) {
                if (name == "stalls_table_conflict")
                    conflict += v;
                else if (name == "stalls_astq")
                    astq += v;
            }
            if (p->opts.mode != SimMode::Detailed) {
                tagValid += m->sampling.meanTagValidFraction;
                occupancy += m->sampling.meanBpredTableOccupancy;
                ++nSampled;
                for (const auto &rec : m->sampleRecords)
                    detailInsts += double(rec.warmInsts + rec.insts);
            }
        }
        L["cpu.cycles"] = cycles;
        L["cpu.insts"] = insts;
        L["mem.dcache_acc_per_inst"] = insts > 0 ? dacc / insts : 0;
        L["core.stalls_table_conflict"] = conflict;
        L["core.stalls_astq"] = astq;
        if (nSampled) {
            L["mem.tag_valid_frac"] = tagValid / nSampled;
            L["bpred.occupancy"] = occupancy / nSampled;
            double funcSec = 0, detailSec = 0, funcInsts = 0;
            for (const BatchResult &r : results_) {
                funcSec += r.funcSec;
                detailSec += r.simSec;
                funcInsts += r.funcInsts;
            }
            L["analysis.sampling.func_s"] = funcSec;
            L["analysis.sampling.detail_s"] = detailSec;
            L["analysis.sampling.detail_inst_frac"] =
                detailInsts / std::max(1.0, detailInsts + funcInsts);
        }
        const double hits = runner_->cacheHits.value();
        const double misses = runner_->cacheMisses.value();
        L["analysis.cache_hit_frac"] =
            hits + misses > 0 ? hits / (hits + misses) : 0;

        probeCache();
        probeConstruct(sims);
        if (a_.workload == "smt_rerun")
            probeCluster();
        if (a_.workload == "sampled_sweep")
            probeSampling();
    }

    /** ResultCache load/store and JSON encode/decode latency over the
     *  workload's own points and results. */
    void
    probeCache()
    {
        std::vector<double> load, store, enc, dec;
        analysis::ResultCache cache(cacheDir_);
        analysis::ResultCache scratch(a_.work + "/probe-cache");
        const auto &batches = submitted();
        for (size_t b = 0; b < batches.size(); ++b)
            for (size_t i = 0; i < batches[b].points.size(); ++i) {
                const SweepPoint &p = batches[b].points[i];
                Measurement m;
                double t0 = nowS();
                cache.load(p, m);
                load.push_back((nowS() - t0) * 1e6);
                const Measurement &r = results_[b].results[i];
                t0 = nowS();
                scratch.store(p, r);
                store.push_back((nowS() - t0) * 1e6);
                t0 = nowS();
                const std::string text = analysis::measurementToJson(r);
                enc.push_back((nowS() - t0) * 1e6);
                t0 = nowS();
                sink_ += analysis::measurementFromJson(text).ipc;
                dec.push_back((nowS() - t0) * 1e6);
            }
        auto &L = rep_.layer;
        L["analysis.cache_load_us.p50"] = quantile(load, 0.5);
        L["analysis.cache_load_us.p99"] = quantile(load, 0.99);
        L["analysis.cache_store_us.p50"] = quantile(store, 0.5);
        L["analysis.cache_store_us.p99"] = quantile(store, 0.99);
        L["analysis.json_encode_us"] = median(enc);
        L["analysis.json_decode_us"] = median(dec);
    }

    /** Workload selection's clustering step (PCA, average linkage,
     *  medoids) timed alone, once per stage, on statistics matrices of
     *  the stage's shape: every candidate the selection profiled, with
     *  short profiling runs so the probe stays cheap. */
    void
    probeCluster()
    {
        const analysis::SelectionOptions so = selectionOpts(a_.tiny);
        std::vector<std::vector<std::string>> pairs, quads;
        const auto &profiles = wload::spec2000Profiles();
        for (size_t i = 0; i < profiles.size(); ++i)
            for (size_t j = i + 1; j < profiles.size(); ++j)
                pairs.push_back({profiles[i].name, profiles[j].name});
        const auto &two = selected_.twoThread;
        for (size_t i = 0; i < two.size(); ++i)
            for (size_t j = i + 1; j < two.size(); ++j) {
                auto q = two[i];
                q.insert(q.end(), two[j].begin(), two[j].end());
                quads.push_back(q);
            }
        double sec = 0;
        for (const auto &[cands, keep] :
             {std::pair{pairs, so.numTwoThread},
              std::pair{quads, so.numFourThread}}) {
            analysis::Matrix stats;
            for (const auto &names : cands)
                stats.push_back(
                    analysis::workloadStats(names, so.physRegs, 1'000));
            const double t0 = nowS();
            const auto proj = analysis::pcaProject(stats, 0.9);
            const auto assign = analysis::averageLinkageCluster(proj, keep);
            sink_ += double(analysis::clusterMedoids(proj, assign).size());
            sec += nowS() - t0;
        }
        rep_.layer["analysis.cluster_s"] = sec;
    }

    static std::vector<const isa::Program *>
    programsFor(const SweepPoint &p)
    {
        std::vector<const isa::Program *> progs;
        for (const std::string &name : p.benches)
            progs.push_back(wload::cachedProgram(
                wload::profileByName(name), p.windowed));
        return progs;
    }

    /** OooCpu construction cost for each simulated configuration. */
    void
    probeConstruct(const std::vector<std::pair<const SweepPoint *,
                                               const Measurement *>> &sims)
    {
        std::vector<double> us;
        std::set<std::string> seen;
        for (const auto &[p, m] : sims) {
            const std::string cfg = std::string(archLabel(p->kind)) + "/" +
                std::to_string(p->physRegs) + "/" +
                std::to_string(p->benches.size());
            if (!m->ok || !seen.insert(cfg).second)
                continue;
            auto params = cpu::CpuParams::preset(
                p->kind, p->physRegs, unsigned(p->benches.size()));
            const auto progs = programsFor(*p);
            const double t0 = nowS();
            cpu::OooCpu core(params, progs);
            us.push_back((nowS() - t0) * 1e6);
        }
        rep_.layer["cpu.construct_us"] = median(us);
    }

    /** The sampled modes' building blocks, timed one call at a time:
     *  functional fast-forward, BB-IR construction, warm-state
     *  transplant, switch-in and SimPoint selection. */
    void
    probeSampling()
    {
        auto &L = rep_.layer;
        std::set<std::pair<std::string, bool>> progs;
        for (const auto &[name, w] : programsOf(batches_))
            progs.emplace(name, w);

        double ffInsts = 0, ffSec = 0, bbSec = 0;
        for (const auto &[name, windowed] : progs) {
            const isa::Program &prog =
                *wload::cachedProgram(wload::profileByName(name), windowed);
            double t0 = nowS();
            isa::BbCache bbs(prog);
            for (Addr pc = 0; pc < prog.size();) {
                const isa::BasicBlock &bb = bbs.blockAt(pc);
                pc = bb.startPc + bb.length;
            }
            bbSec += nowS() - t0;
            mem::SparseMemory memory;
            func::FuncSim sim(prog, memory);
            t0 = nowS();
            ffInsts += double(sim.runFast(500'000).insts);
            ffSec += nowS() - t0;
        }
        L["func.fast_mips"] = ffInsts / ffSec / 1e6;
        L["isa.bb_build_s"] = bbSec;

        std::vector<double> sw, memCopy, bpCopy;
        std::set<std::string> seen;
        for (const Batch &b : batches_) {
            for (const SweepPoint &p : b.points) {
                const std::string cfg = p.benches[0] + "/" +
                    archLabel(p.kind);
                if (!seen.insert(cfg).second)
                    continue;
                const isa::Program &prog = *programsFor(p)[0];
                auto params = cpu::CpuParams::preset(p.kind, p.physRegs, 1);
                cpu::OooCpu donor(params, {&prog});
                cpu::OooCpu core(params, {&prog});
                mem::SparseMemory fmem;
                func::FuncSim fsim(prog, fmem);
                fsim.runFast(10'000);
                double t0 = nowS();
                core.memSystem().copyStateFrom(donor.memSystem());
                memCopy.push_back((nowS() - t0) * 1e6);
                t0 = nowS();
                core.branchPredictor().copyStateFrom(
                    donor.branchPredictor());
                bpCopy.push_back((nowS() - t0) * 1e6);
                t0 = nowS();
                core.switchIn(0, fsim.captureState(), fmem);
                sw.push_back((nowS() - t0) * 1e6);
            }
        }
        L["cpu.switch_in_us"] = median(sw);
        L["mem.copy_state_us"] = median(memCopy);
        L["bpred.copy_state_us"] = median(bpCopy);

        // SimPoint selection (BBV collection + k-means) per program the
        // SimPoint batch runs.
        double pickSec = 0;
        std::set<std::pair<std::string, bool>> spProgs;
        for (const SweepPoint &p : batches_[1].points)
            spProgs.emplace(p.benches[0], p.windowed);
        for (const auto &[name, windowed] : spProgs) {
            const isa::Program &prog =
                *wload::cachedProgram(wload::profileByName(name), windowed);
            const double t0 = nowS();
            sink_ += double(analysis::pickSimPoint(
                prog, simpointOpts().measureInsts).numPhases);
            pickSec += nowS() - t0;
        }
        L["analysis.simpoint_pick_s"] = pickSec;
    }

    /** Partition wall_s into layer self times (plus a residual) from
     *  the benchmark's spans and the runner's per-point host lanes,
     *  and write every span out as one Chrome trace. */
    void
    traceMetrics()
    {
        auto &L = rep_.layer;
        // Our spans go to the runner's writer (pid 200) before it is
        // written, so one file shows both.
        tw_->setProcessName(200, "perfbench");
        tw_->setThreadName(200, 0, "measured phase");
        for (const Span &s : spans_.all()) {
            tw_->slice(200, 0, s.name, (s.start - traceEpoch_) * 1e6,
                       s.dur * 1e6);
        }
        tw_->finish();
        const auto lanes = readLanes(tw_->path(), traceEpoch_);

        // Self time: a span's duration minus its children's.
        const auto &spans = spans_.all();
        std::vector<double> childTime(spans.size(), 0.0);
        double covered = 0;
        for (const Span &s : spans) {
            if (s.parent >= 0)
                childTime[size_t(s.parent)] += s.dur;
            else
                covered += s.dur;
        }
        std::map<std::string, double> self;
        for (size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].layer != "batch")
                self[spans[i].layer] += spans[i].dur - childTime[i];
        }

        // Batches: hits are served serially on the submitting thread
        // before the workers start; the rest of the batch is worker
        // capacity split into detailed (cpu), functional (func), other
        // per-point work (analysis) and idle/tail (sim, the pool).
        double busyAll = 0, capacityAll = 0, tail = 0;
        std::map<std::string, std::vector<double>> pointMs;
        for (const BatchResult &r : results_) {
            double hit = 0, busy = 0, lastStart = r.start;
            for (const Lane &l : lanes) {
                if (l.start < r.start || l.start > r.start + r.wall)
                    continue;
                if (l.hit) {
                    hit += l.dur;
                    continue;
                }
                busy += l.dur;
                lastStart = std::max(lastStart, l.start);
                if (!l.arch.empty())
                    pointMs[l.arch].push_back(l.dur * 1e3);
            }
            const double rest = std::max(0.0, r.wall - hit);
            const double j = double(a_.jobs);
            self["analysis"] += hit +
                std::max(0.0, busy - r.simSec - r.funcSec) / j;
            self["cpu"] += std::min(r.simSec, busy) / j;
            self["func"] += r.funcSec / j;
            self["sim"] += std::max(0.0, rest - busy / j);
            busyAll += busy;
            capacityAll += j * rest;
            if (busy > 0)
                tail += r.start + r.wall - lastStart;
        }
        L["analysis.pool_busy_frac"] =
            capacityAll > 0 ? busyAll / capacityAll : 0;
        L["analysis.tail_s"] = tail;
        for (const auto &[arch, ms] : pointMs) {
            L["analysis.point_ms." + arch + ".p50"] = quantile(ms, 0.5);
            L["analysis.point_ms." + arch + ".p90"] = quantile(ms, 0.9);
        }
        for (const char *l : {"func", "cpu", "analysis", "sim"})
            L[std::string("trace.self_s.") + l] = self[l];
        L["trace.self_s.wload"] = L["wload.gen_s"];
        L["trace.residual_s"] = wall_ - covered;
        L["trace.residual_frac"] = (wall_ - covered) / wall_;
    }

    // -- output ---------------------------------------------------------

    void
    print() const
    {
        std::ostringstream os;
        auto obj = [&](const std::map<std::string, double> &m) {
            os << "{";
            bool first = true;
            for (const auto &[name, value] : m) {
                os << (first ? "" : ",") << "\"" << name << "\":"
                   << trace::jsonNumber(value);
                first = false;
            }
            os << "}";
        };
        os << "{\"workload\":\"" << a_.workload << "\",\"seed\":" << a_.seed
           << ",\"variant\":" << variant_ << ",\"traced\":"
           << (a_.trace ? "true" : "false") << ",\"jobs\":" << a_.jobs
           << ",\"attempted\":" << rep_.attempted
           << ",\"failed\":" << rep_.failed
           << ",\"errored\":" << rep_.errored << ",\"mismatches\":[";
        for (size_t i = 0; i < rep_.mismatches.size(); ++i)
            os << (i ? "," : "") << "\""
               << trace::jsonEscape(rep_.mismatches[i]) << "\"";
        os << "],\"build\":{\"type\":\"" << PERFBENCH_BUILD_TYPE
           << "\",\"compiler\":\"" << PERFBENCH_COMPILER
           << "\",\"lto\":\"" << PERFBENCH_LTO << "\",\"native\":\""
           << PERFBENCH_NATIVE << "\",\"ntrace\":\"" << PERFBENCH_NTRACE
           << "\",\"ntelemetry\":\"" << PERFBENCH_NTELEMETRY
           << "\",\"sim_version\":\"" << analysis::kSimVersionTag
           << "\"},\"e2e\":";
        obj(rep_.e2e);
        os << ",\"layer\":";
        obj(rep_.layer);
        os << "}\n";
        std::fputs(os.str().c_str(), stdout);
    }

    const Args &a_;
    Spans spans_;
    Refs refs_;
    Report rep_;
    unsigned variant_ = 0;
    std::vector<Batch> batches_;          ///< set-up's point lists
    std::vector<Batch> measuredBatches_;  ///< smt_rerun: after selection
    std::set<std::uint64_t> uncached_;
    analysis::WorkloadSelection selected_;
    std::string cacheDir_;
    std::unique_ptr<analysis::SweepRunner> runner_;
    std::unique_ptr<telemetry::ChromeTraceWriter> tw_;
    double traceEpoch_ = 0;
    std::vector<BatchResult> results_;
    double wall_ = 0;
    std::uint64_t runTimingCalls_ = 0;
    double sink_ = 0; ///< keeps probe results observable
};

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const Args args = parseArgs(argc, argv);
    try {
        if (args.regen)
            return regenerate(args);
        Iteration it(args);
        return it.run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
}
