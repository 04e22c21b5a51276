/**
 * @file
 * gem5-style debug-flag registry and the DPRINTF tracing macro.
 *
 * Every trace point in the simulator is guarded by a named flag
 * (Fetch, Rename, Commit, VcaCache, ...). Flags are off by default,
 * enabled at runtime from a comma list ("Rename,Commit", "All",
 * "All,-Cache"); a disabled trace point costs one flag test.
 *
 * DPRINTF(Flag, fmt, ...)       - trace, stamped with the current cycle
 * DPRINTFT(Flag, tid, fmt, ...) - same, also stamped with a thread id
 * DTRACE(Flag)                  - true when the flag is enabled
 *
 * Output goes to stderr by default; setTraceStream() redirects it
 * (e.g. to a file opened by --debug-file). The cycle stamp is the
 * value most recently published with setTraceCycle() on the calling
 * thread, which OooCpu does at the top of every tick; the published
 * cycle is thread_local, so cores simulating on different threads
 * never stamp each other's cycles.
 */

#ifndef VCA_TRACE_DEBUG_FLAGS_HH
#define VCA_TRACE_DEBUG_FLAGS_HH

#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace vca::trace {

/** Compile-time registry of all debug flags. */
enum class Flag : unsigned
{
    Fetch,      ///< instruction fetch, icache stalls, redirects
    Rename,     ///< rename-stage mapping and structural stalls
    Dispatch,   ///< IQ insertion / wakeup bookkeeping
    Issue,      ///< instruction selection and FU/port arbitration
    Commit,     ///< in-order retirement, one line per instruction
    Squash,     ///< pipeline flushes (mispredicts, traps, halts)
    Cache,      ///< cache misses, writebacks, MSHR rejections
    VcaRename,  ///< VCA rename-table hits/misses/evictions
    VcaCache,   ///< VCA spill/fill traffic through the ASTQ
    WindowTrap, ///< conventional-window overflow/underflow traps
    Interval,   ///< interval-statistics records as they close
    NumFlags,   ///< sentinel; not a real flag
};

constexpr unsigned numFlags = static_cast<unsigned>(Flag::NumFlags);

struct FlagInfo
{
    Flag flag;
    const char *name;
    const char *desc;
};

/** Static metadata for every flag (indexable by enum value). */
const std::vector<FlagInfo> &allFlags();

/** Name of one flag ("Rename"). */
const char *flagName(Flag f);

namespace detail {
// Storage behind the inline fast path. anyOn is the OR of all flags so
// a disabled tracer costs one load+branch per trace point.
extern bool flagsOn[numFlags];
extern bool anyOn;
} // namespace detail

/** Fast check: is this flag enabled? */
inline bool
flagEnabled(Flag f)
{
    return detail::anyOn && detail::flagsOn[static_cast<unsigned>(f)];
}

/** True if any flag at all is enabled. */
inline bool anyFlagEnabled() { return detail::anyOn; }

/** Enable / disable one flag. */
void setFlag(Flag f, bool on);

/**
 * Enable / disable a flag by name. "All" fans out to every flag.
 * Returns false for unknown names (caller decides how loud to be).
 */
bool setFlagByName(const std::string &name, bool on);

/**
 * Apply a comma-separated flag list in order: "Rename,Commit" enables
 * two flags; a "-" prefix disables ("All,-Cache" = everything except
 * Cache). Throws FatalError on an unknown flag name.
 */
void setFlagsFromString(const std::string &list);

/** Turn every flag off. */
void clearAllFlags();

/** Names of the currently enabled flags, in registry order. */
std::vector<std::string> enabledFlagNames();

/** One-line-per-flag help listing for --debug-help. */
std::string flagHelp();

/**
 * Redirect trace output (nullptr restores stderr). The stream must
 * outlive every trace point that fires.
 */
void setTraceStream(std::ostream *os);

/** Publish the cycle to stamp on this thread's subsequent trace lines. */
void setTraceCycle(Cycle c);

/** Cycle most recently published with setTraceCycle() on this thread. */
Cycle traceCycle();

/** Backend of DPRINTF; use the macro, not this. */
void tracePrintf(Flag f, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** Backend of DPRINTFT; use the macro, not this. */
void tracePrintfTid(Flag f, unsigned tid, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

} // namespace vca::trace

#define DTRACE(flag) \
    (::vca::trace::flagEnabled(::vca::trace::Flag::flag))

#define DPRINTF(flag, ...)                                            \
    do {                                                              \
        if (DTRACE(flag)) {                                           \
            ::vca::trace::tracePrintf(::vca::trace::Flag::flag,       \
                                      __VA_ARGS__);                   \
        }                                                             \
    } while (0)

#define DPRINTFT(flag, tid, ...)                                      \
    do {                                                              \
        if (DTRACE(flag)) {                                           \
            ::vca::trace::tracePrintfTid(::vca::trace::Flag::flag,    \
                                         static_cast<unsigned>(tid),  \
                                         __VA_ARGS__);                \
        }                                                             \
    } while (0)

#endif // VCA_TRACE_DEBUG_FLAGS_HH
