#include "trace/debug_flags.hh"

#include <cstdarg>
#include <iostream>
#include <sstream>

#include "sim/logging.hh"

namespace vca::trace {

namespace detail {
bool flagsOn[numFlags] = {};
bool anyOn = false;
} // namespace detail

namespace {

std::ostream *traceStream = nullptr;
/** Per simulating thread: concurrent cores each stamp their own cycle. */
thread_local Cycle traceCycle_ = 0;

void
recomputeAnyOn()
{
    bool any = false;
    for (unsigned i = 0; i < numFlags; ++i)
        any = any || detail::flagsOn[i];
    detail::anyOn = any;
}

std::ostream &
out()
{
    return traceStream ? *traceStream : std::cerr;
}

void
emit(Flag f, int tid, const std::string &msg)
{
    std::ostringstream line;
    line << traceCycle_ << ": ";
    if (tid >= 0)
        line << "T" << tid << ": ";
    line << flagName(f) << ": " << msg << "\n";
    out() << line.str();
}

} // namespace

const std::vector<FlagInfo> &
allFlags()
{
    static const std::vector<FlagInfo> flags = {
        {Flag::Fetch, "Fetch",
         "instruction fetch, icache stalls, redirects"},
        {Flag::Rename, "Rename",
         "rename-stage mapping and structural stalls"},
        {Flag::Dispatch, "Dispatch",
         "instruction-queue insertion and wakeup"},
        {Flag::Issue, "Issue",
         "instruction selection and FU/port arbitration"},
        {Flag::Commit, "Commit",
         "in-order retirement, one line per instruction"},
        {Flag::Squash, "Squash",
         "pipeline flushes: mispredicts, traps, halts"},
        {Flag::Cache, "Cache",
         "cache misses, writebacks, MSHR rejections"},
        {Flag::VcaRename, "VcaRename",
         "VCA rename-table hits, misses, evictions"},
        {Flag::VcaCache, "VcaCache",
         "VCA spill/fill traffic through the ASTQ"},
        {Flag::WindowTrap, "WindowTrap",
         "register-window overflow/underflow traps"},
        {Flag::Interval, "Interval",
         "interval-statistics records as they close"},
    };
    return flags;
}

const char *
flagName(Flag f)
{
    const auto idx = static_cast<unsigned>(f);
    if (idx >= numFlags)
        return "?";
    return allFlags()[idx].name;
}

void
setFlag(Flag f, bool on)
{
    const auto idx = static_cast<unsigned>(f);
    if (idx >= numFlags)
        panic("setFlag: bad flag index %u", idx);
    detail::flagsOn[idx] = on;
    recomputeAnyOn();
}

bool
setFlagByName(const std::string &name, bool on)
{
    if (name == "All") {
        for (unsigned i = 0; i < numFlags; ++i)
            detail::flagsOn[i] = on;
        recomputeAnyOn();
        return true;
    }
    for (const FlagInfo &info : allFlags()) {
        if (name == info.name) {
            setFlag(info.flag, on);
            return true;
        }
    }
    return false;
}

void
setFlagsFromString(const std::string &list)
{
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        bool on = true;
        if (item[0] == '-' || item[0] == '+') {
            on = item[0] == '+';
            item.erase(0, 1);
        }
        if (!setFlagByName(item, on)) {
            fatal("unknown debug flag '%s' (see --debug-help)",
                  item.c_str());
        }
    }
}

void
clearAllFlags()
{
    for (unsigned i = 0; i < numFlags; ++i)
        detail::flagsOn[i] = false;
    detail::anyOn = false;
}

std::vector<std::string>
enabledFlagNames()
{
    std::vector<std::string> names;
    for (const FlagInfo &info : allFlags()) {
        if (detail::flagsOn[static_cast<unsigned>(info.flag)])
            names.push_back(info.name);
    }
    return names;
}

std::string
flagHelp()
{
    std::ostringstream os;
    os << "debug flags (--debug-flags=A,B or All, -Flag disables):\n";
    for (const FlagInfo &info : allFlags()) {
        os << "  " << info.name;
        for (size_t i = std::string(info.name).size(); i < 12; ++i)
            os << ' ';
        os << info.desc << "\n";
    }
    return os.str();
}

void
setTraceStream(std::ostream *os)
{
    traceStream = os;
}

void
setTraceCycle(Cycle c)
{
    traceCycle_ = c;
}

Cycle
traceCycle()
{
    return traceCycle_;
}

void
tracePrintf(Flag f, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vca::detail::vformatMessage(fmt, args);
    va_end(args);
    emit(f, -1, msg);
}

void
tracePrintfTid(Flag f, unsigned tid, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vca::detail::vformatMessage(fmt, args);
    va_end(args);
    emit(f, static_cast<int>(tid), msg);
}

} // namespace vca::trace
