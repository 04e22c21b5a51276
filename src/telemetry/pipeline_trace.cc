#include "telemetry/pipeline_trace.hh"

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "cpu/ooo_cpu.hh"
#include "cpu/tracer.hh"
#include "trace/pipe_trace.hh"

namespace vca::telemetry {

namespace {

// pid of the simulated-time process group in the trace.
constexpr int kPid = 1;
// Lane tids group per simulated thread: thread t owns [t*100, t*100+90].
constexpr int kLanesPerThreadBase = 100;
constexpr int kEventLane = 90;
// Lanes per simulated thread before slices double up.
constexpr unsigned kMaxLanesPerThread = 32;
// Transfers within one window that qualify as a burst instant.
constexpr unsigned kBurstInstantThreshold = 8;

struct SimTracerState
{
    ChromeTraceWriter &writer;
    InstCount maxInsts;
    InstCount traced = 0;
    // Per simulated thread: the retire time of the last slice on each
    // lane; a committing instruction takes the first lane that was
    // free at its fetch time.
    std::vector<std::vector<Cycle>> laneEnd;
    std::unordered_set<int> namedTids;
    // Spill/fill aggregation (global across threads).
    cpu::TransferWindows windows;
    bool lastWindowEmpty = true;

    SimTracerState(ChromeTraceWriter &w, InstCount cap)
        : writer(w), maxInsts(cap) {}

    int
    laneTid(unsigned tid, unsigned lane)
    {
        const int t = static_cast<int>(tid) * kLanesPerThreadBase +
                      static_cast<int>(lane);
        if (namedTids.insert(t).second) {
            writer.setThreadName(kPid, t,
                                 "T" + std::to_string(tid) + " lane " +
                                     std::to_string(lane));
        }
        return t;
    }

    int
    eventTid(unsigned tid)
    {
        const int t = static_cast<int>(tid) * kLanesPerThreadBase +
                      kEventLane;
        if (namedTids.insert(t).second) {
            writer.setThreadName(kPid, t,
                                 "T" + std::to_string(tid) + " events");
        }
        return t;
    }

    void
    flushWindow(Cycle start, unsigned spills, unsigned fills)
    {
        const bool empty = spills == 0 && fills == 0;
        if (!empty || !lastWindowEmpty) {
            writer.counter(kPid, 0, "vca transfers",
                           static_cast<double>(start),
                           {{"spills", double(spills)},
                            {"fills", double(fills)}});
        }
        if (!empty && spills + fills >= kBurstInstantThreshold) {
            writer.instant(kPid, eventTid(0), "transfer burst",
                           static_cast<double>(start),
                           "{\"spills\":" + std::to_string(spills) +
                               ",\"fills\":" + std::to_string(fills) +
                               "}");
        }
        lastWindowEmpty = empty;
    }

    void
    onCommit(const trace::PipeRecord &rec)
    {
        if (maxInsts && traced >= maxInsts)
            return;
        ++traced;

        const unsigned tid = rec.tid;
        if (tid >= laneEnd.size())
            laneEnd.resize(tid + 1);
        auto &lanes = laneEnd[tid];
        unsigned lane = 0;
        for (; lane < lanes.size(); ++lane) {
            if (lanes[lane] <= rec.fetch)
                break;
        }
        if (lane == lanes.size()) {
            if (lanes.size() < kMaxLanesPerThread) {
                lanes.push_back(0);
            } else {
                // All lanes busy at fetch time: double up on the one
                // that frees first (rare; rendering-only compromise).
                lane = 0;
                for (unsigned i = 1; i < lanes.size(); ++i)
                    if (lanes[i] < lanes[lane])
                        lane = i;
            }
        }
        const int t = laneTid(tid, lane);
        const double retire = static_cast<double>(rec.commit) + 1;
        lanes[lane] = rec.commit + 1;

        writer.begin(kPid, t, rec.disasm,
                     static_cast<double>(rec.fetch),
                     "{\"seq\":" + std::to_string(rec.seq) +
                         ",\"pc\":" + std::to_string(rec.pc) + "}");
        const struct
        {
            const char *name;
            Cycle from, to;
        } phases[] = {
            {"fetch", rec.fetch, rec.decode},
            {"decode", rec.decode, rec.rename},
            {"rename", rec.rename, rec.dispatch},
            {"dispatch", rec.dispatch, rec.issue},
            {"issue", rec.issue, rec.complete},
            {"complete", rec.complete, rec.commit},
        };
        for (const auto &p : phases) {
            if (p.to > p.from)
                writer.slice(kPid, t, p.name,
                             static_cast<double>(p.from),
                             static_cast<double>(p.to - p.from));
        }
        writer.slice(kPid, t, "retire",
                     static_cast<double>(rec.commit), 1);
        writer.end(kPid, t, retire);
    }
};

} // namespace

void
attachChromeSimTracer(cpu::OooCpu &cpu, ChromeTraceWriter &writer,
                      InstCount maxInsts)
{
    auto state = std::make_shared<SimTracerState>(writer, maxInsts);
    writer.setProcessName(kPid, "simulated time (1 cycle = 1us)");

    cpu.addCommitListener(
        [state, &cpu](const cpu::DynInst &inst) {
            state->onCommit(cpu::makePipeRecord(cpu, inst));
        });

    cpu.addSimEventListener([state](const cpu::OooCpu::SimEvent &ev) {
        using Kind = cpu::OooCpu::SimEvent::Kind;
        switch (ev.kind) {
          case Kind::WindowOverflow:
            state->writer.instant(kPid, state->eventTid(ev.tid),
                                  "window overflow",
                                  static_cast<double>(ev.cycle));
            break;
          case Kind::WindowUnderflow:
            state->writer.instant(kPid, state->eventTid(ev.tid),
                                  "window underflow",
                                  static_cast<double>(ev.cycle));
            break;
          case Kind::Spill:
          case Kind::Fill:
            state->windows.add(
                ev.cycle, ev.kind == Kind::Spill,
                [&](Cycle start, unsigned spills, unsigned fills) {
                    state->flushWindow(start, spills, fills);
                });
            break;
        }
    });
}

} // namespace vca::telemetry
