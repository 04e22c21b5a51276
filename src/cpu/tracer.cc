#include "cpu/tracer.hh"

#include <iomanip>
#include <memory>
#include <sstream>

namespace vca::cpu {

std::string
formatTraceLine(const OooCpu &cpu, const DynInst &inst)
{
    std::ostringstream os;
    os << std::setw(10) << cpu.currentCycle() << ": T" << int(inst.tid)
       << " " << std::setw(7) << inst.pc << ": "
       << std::left << std::setw(24) << isa::disassemble(*inst.si)
       << std::right;
    if (inst.si->hasDest)
        os << " D=0x" << std::hex << inst.result << std::dec;
    if (inst.si->isMem() && inst.effAddrValid)
        os << " A=0x" << std::hex << inst.effAddr << std::dec;
    if (inst.mispredicted)
        os << " [mispredicted]";
    return os.str();
}

void
attachCommitTracer(OooCpu &cpu, std::ostream &os, InstCount maxInsts)
{
    auto count = std::make_shared<InstCount>(0);
    cpu.addCommitListener([&cpu, &os, maxInsts, count](const DynInst &inst) {
        if (maxInsts && *count >= maxInsts)
            return;
        ++*count;
        os << formatTraceLine(cpu, inst) << '\n';
    });
}

trace::PipeRecord
makePipeRecord(const OooCpu &cpu, const DynInst &inst)
{
    trace::PipeRecord rec;
    rec.seq = inst.seq;
    rec.tid = inst.tid;
    rec.pc = inst.pc;
    rec.fetch = inst.fetchTick;
    rec.decode = inst.decodeTick;
    rec.rename = inst.renameTick;
    rec.dispatch = inst.dispatchTick;
    rec.issue = inst.issueTick;
    rec.complete = inst.completeTick;
    rec.commit = cpu.currentCycle();
    rec.isStore = inst.isStore();
    // The store buffer drains after the instruction is released, so
    // the writeback tick is approximated by the retire tick.
    rec.storeComplete = rec.isStore ? rec.commit : 0;
    rec.disasm = isa::disassemble(*inst.si);
    return rec;
}

void
attachPipeTracer(OooCpu &cpu, std::ostream &os, InstCount maxInsts,
                 bool instants)
{
    auto writer = std::make_shared<trace::PipeTraceWriter>(os);
    cpu.addCommitListener(
        [&cpu, writer, maxInsts](const DynInst &inst) {
            if (maxInsts && writer->recordsWritten() >= maxInsts)
                return;
            writer->write(makePipeRecord(cpu, inst));
        });
    if (!instants)
        return;
    // Telemetry marks share the writer so instants land between (never
    // inside) instruction records in commit order. Spill/fill issues
    // are too frequent to mark individually; aggregate per window.
    auto windows = std::make_shared<TransferWindows>();
    cpu.addSimEventListener(
        [writer, windows, maxInsts](const OooCpu::SimEvent &ev) {
            using Kind = OooCpu::SimEvent::Kind;
            if (maxInsts && writer->recordsWritten() >= maxInsts)
                return;
            switch (ev.kind) {
              case Kind::WindowOverflow:
                writer->instant("window_overflow", ev.cycle);
                return;
              case Kind::WindowUnderflow:
                writer->instant("window_underflow", ev.cycle);
                return;
              case Kind::Spill:
              case Kind::Fill:
                break;
            }
            windows->add(ev.cycle, ev.kind == Kind::Spill,
                         [&](Cycle start, unsigned spills, unsigned fills) {
                             if (spills + fills == 0)
                                 return;
                             writer->instant(
                                 "transfers spills=" +
                                     std::to_string(spills) +
                                     " fills=" + std::to_string(fills),
                                 start);
                         });
        });
}

} // namespace vca::cpu
