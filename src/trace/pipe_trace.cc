#include "trace/pipe_trace.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace vca::trace {

void
PipeTraceWriter::write(const PipeRecord &rec)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "O3PipeView:fetch:%llu:0x%08llx:%u:%llu:",
                  (unsigned long long)(rec.fetch * kTicksPerCycle),
                  (unsigned long long)rec.pc, rec.tid,
                  (unsigned long long)rec.seq);
    os_ << buf << rec.disasm << "\n";

    const auto stage = [&](const char *name, Cycle c) {
        os_ << "O3PipeView:" << name << ":" << c * kTicksPerCycle << "\n";
    };
    stage("decode", rec.decode);
    stage("rename", rec.rename);
    stage("dispatch", rec.dispatch);
    stage("issue", rec.issue);
    stage("complete", rec.complete);
    os_ << "O3PipeView:retire:" << rec.commit * kTicksPerCycle << ":store:"
        << (rec.isStore ? rec.storeComplete * kTicksPerCycle : 0) << "\n";
    ++written_;
}

void
PipeTraceWriter::instant(const std::string &label, Cycle when)
{
    os_ << "O3PipeView:instant:" << when * kTicksPerCycle << ":" << label
        << "\n";
    ++instants_;
}

namespace {

/** Split a line on ':' into at most maxParts fields (last keeps ':'). */
std::vector<std::string>
splitColon(const std::string &line, size_t maxParts)
{
    std::vector<std::string> parts;
    size_t pos = 0;
    while (parts.size() + 1 < maxParts) {
        size_t c = line.find(':', pos);
        if (c == std::string::npos)
            break;
        parts.push_back(line.substr(pos, c - pos));
        pos = c + 1;
    }
    parts.push_back(line.substr(pos));
    return parts;
}

std::uint64_t
toU64(const std::string &s)
{
    return std::strtoull(s.c_str(), nullptr, 0);
}

} // namespace

bool
parsePipeTrace(std::istream &is, std::vector<PipeRecord> &out,
               std::string *error, Cycle ticksPerCycle,
               std::uint64_t *unknownRecords)
{
    const Cycle scale = ticksPerCycle ? ticksPerCycle : 1;
    PipeRecord cur;
    bool open = false;
    std::string line;
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    while (std::getline(is, line)) {
        if (line.rfind("O3PipeView:", 0) != 0)
            continue;
        const std::string body = line.substr(std::strlen("O3PipeView:"));

        if (body.rfind("fetch:", 0) == 0) {
            if (open)
                return fail("fetch record opened before prior retired");
            // fetch:<tick>:<pc>:<upc>:<seq>:<disasm>
            const auto parts = splitColon(body, 6);
            if (parts.size() != 6)
                return fail("malformed fetch line: " + line);
            cur = PipeRecord{};
            cur.fetch = toU64(parts[1]) / scale;
            cur.pc = toU64(parts[2]);
            cur.tid = static_cast<unsigned>(toU64(parts[3]));
            cur.seq = toU64(parts[4]);
            cur.disasm = parts[5];
            open = true;
            continue;
        }
        const auto parts = splitColon(body, 4);
        const std::string &stage = parts[0];
        const bool known =
            stage == "decode" || stage == "rename" ||
            stage == "dispatch" || stage == "issue" ||
            stage == "complete" || stage == "retire";
        if (!known) {
            // Newer writers interleave extra record types (e.g.
            // "instant:<tick>:<label>" telemetry marks, which may fall
            // between records): count and skip so old traces and new
            // ones parse alike.
            if (unknownRecords)
                ++*unknownRecords;
            continue;
        }
        if (!open)
            return fail("stage line outside a record: " + line);

        const Cycle tick = parts.size() > 1 ? toU64(parts[1]) / scale : 0;
        if (stage == "decode") {
            cur.decode = tick;
        } else if (stage == "rename") {
            cur.rename = tick;
        } else if (stage == "dispatch") {
            cur.dispatch = tick;
        } else if (stage == "issue") {
            cur.issue = tick;
        } else if (stage == "complete") {
            cur.complete = tick;
        } else if (stage == "retire") {
            cur.commit = tick;
            if (parts.size() == 4 && parts[2] == "store") {
                cur.storeComplete = toU64(parts[3]) / scale;
                cur.isStore = cur.storeComplete != 0;
            }
            out.push_back(cur);
            open = false;
        }
    }
    if (open)
        return fail("trace ends inside a record");
    return true;
}

} // namespace vca::trace
