/**
 * @file
 * Unit tests for the functional simulator: instruction semantics, the
 * windowed ABI (window shifting, cross-window isolation, deep
 * recursion), and hand-written program execution.
 */

#include <gtest/gtest.h>

#include "func/func_sim.hh"
#include "isa/program.hh"
#include "wload/asm_builder.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

namespace {

using namespace vca;
using namespace vca::isa;
using vca::wload::AsmBuilder;

isa::Program
makeProgram(AsmBuilder &b, bool windowed = false)
{
    isa::Program p;
    p.name = "test";
    p.windowedAbi = windowed;
    p.code = b.seal();
    p.finalize();
    return p;
}

func::FuncSimStats
runToHalt(const isa::Program &p, mem::SparseMemory &m,
          std::uint64_t *r5Out = nullptr)
{
    func::FuncSim sim(p, m);
    const auto stats = sim.run(1'000'000);
    EXPECT_TRUE(sim.halted()) << "program did not halt";
    if (r5Out)
        *r5Out = sim.readIntReg(5);
    return stats;
}

TEST(FuncSim, BasicArithmetic)
{
    AsmBuilder b;
    b.addi(4, regZero, 20);
    b.addi(5, regZero, 22);
    b.emitR(Opcode::Add, 5, 4, 5);
    b.halt();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    const auto stats = runToHalt(makeProgram(b), m, &r5);
    EXPECT_EQ(r5, 42u);
    EXPECT_EQ(stats.insts, 3u);
}

TEST(FuncSim, SubWithZeroFirstOperand)
{
    // r5 = r0 - r4 must be -7, not 7 (positional operands).
    AsmBuilder b;
    b.addi(4, regZero, 7);
    b.emitR(Opcode::Sub, 5, regZero, 4);
    b.halt();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    runToHalt(makeProgram(b), m, &r5);
    EXPECT_EQ(static_cast<std::int64_t>(r5), -7);
}

TEST(FuncSim, DivisionEdgeCases)
{
    AsmBuilder b;
    b.addi(4, regZero, 10);
    b.emitR(Opcode::Div, 5, 4, regZero); // div by zero -> 0
    b.halt();
    mem::SparseMemory m;
    std::uint64_t r5 = 1;
    runToHalt(makeProgram(b), m, &r5);
    EXPECT_EQ(r5, 0u);
}

TEST(FuncSim, LoadStoreRoundTrip)
{
    AsmBuilder b;
    b.li(2, 0x2000'0000);
    b.addi(10, regZero, 1234);
    b.st(2, 10, 16);
    b.ld(5, 2, 16);
    b.halt();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    const auto stats = runToHalt(makeProgram(b), m, &r5);
    EXPECT_EQ(r5, 1234u);
    EXPECT_EQ(stats.loads, 1u);
    EXPECT_EQ(stats.stores, 1u);
}

TEST(FuncSim, FloatingPoint)
{
    AsmBuilder b;
    b.addi(4, regZero, 3);
    b.emitR(Opcode::Fcvtif, 8, 4, regZero);  // f8 = 3.0
    b.emitR(Opcode::Fmul, 9, 8, 8);          // f9 = 9.0
    b.emitR(Opcode::Fadd, 9, 9, 8);          // f9 = 12.0
    b.emitR(Opcode::Fcvtfi, 5, 9, regZero);  // r5 = 12
    b.halt();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    runToHalt(makeProgram(b), m, &r5);
    EXPECT_EQ(r5, 12u);
}

TEST(FuncSim, BranchTakenAndNotTaken)
{
    AsmBuilder b;
    b.addi(4, regZero, 1);
    auto skip = b.newLabel();
    b.branch(Opcode::Bne, 4, regZero, skip); // taken
    b.addi(5, regZero, 111);                 // skipped
    b.bind(skip);
    b.addi(6, regZero, 7);
    auto skip2 = b.newLabel();
    b.branch(Opcode::Beq, 4, regZero, skip2); // not taken
    b.addi(5, regZero, 42);
    b.bind(skip2);
    b.halt();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    const auto stats = runToHalt(makeProgram(b), m, &r5);
    EXPECT_EQ(r5, 42u);
    EXPECT_EQ(stats.condBranches, 2u);
    EXPECT_EQ(stats.takenCondBranches, 1u);
}

TEST(FuncSim, LoopSum)
{
    // Sum 1..10 into r5.
    AsmBuilder b;
    b.addi(13, regZero, 10);
    b.addi(5, regZero, 0);
    auto top = b.newLabel();
    b.bind(top);
    b.emitR(Opcode::Add, 5, 5, 13);
    b.addi(13, 13, -1);
    b.branch(Opcode::Bne, 13, regZero, top);
    b.halt();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    runToHalt(makeProgram(b), m, &r5);
    EXPECT_EQ(r5, 55u);
}

TEST(FuncSim, CallAndReturnNonWindowed)
{
    AsmBuilder b;
    auto fn = b.newLabel();
    b.addi(4, regZero, 20);
    b.call(fn);
    b.mov(5, 4);
    b.halt();
    b.bind(fn);
    b.addi(4, 4, 22);
    b.ret();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    const auto stats = runToHalt(makeProgram(b, false), m, &r5);
    EXPECT_EQ(r5, 42u);
    EXPECT_EQ(stats.calls, 1u);
}

TEST(FuncSim, WindowedCallIsolatesWindowedRegisters)
{
    // Caller's r10 must survive a callee that clobbers r10, with NO
    // save/restore code, under the windowed ABI.
    AsmBuilder b;
    auto fn = b.newLabel();
    b.addi(10, regZero, 1111);
    b.call(fn);
    b.mov(5, 10);
    b.halt();
    b.bind(fn);
    b.addi(10, regZero, 2222); // clobber (own window)
    b.ret();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    runToHalt(makeProgram(b, true), m, &r5);
    EXPECT_EQ(r5, 1111u);
}

TEST(FuncSim, NonWindowedCallDoesNotIsolate)
{
    // Same program, non-windowed ABI: the clobber is visible.
    AsmBuilder b;
    auto fn = b.newLabel();
    b.addi(10, regZero, 1111);
    b.call(fn);
    b.mov(5, 10);
    b.halt();
    b.bind(fn);
    b.addi(10, regZero, 2222);
    b.ret();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    runToHalt(makeProgram(b, false), m, &r5);
    EXPECT_EQ(r5, 2222u);
}

TEST(FuncSim, WindowedGlobalsAreShared)
{
    // Globals (argument registers) pass values through calls.
    AsmBuilder b;
    auto fn = b.newLabel();
    b.addi(4, regZero, 40);
    b.call(fn);
    b.mov(5, 4);
    b.halt();
    b.bind(fn);
    b.addi(4, 4, 2);
    b.ret();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    runToHalt(makeProgram(b, true), m, &r5);
    EXPECT_EQ(r5, 42u);
}

TEST(FuncSim, WindowedDeepRecursionFibonacci)
{
    // fib(n) with per-frame locals in windowed registers, no explicit
    // saves: exercises many live windows at once.
    AsmBuilder b;
    auto fib = b.newLabel();
    b.addi(4, regZero, 12); // a0 = 12
    b.call(fib);
    b.mov(5, 4);
    b.halt();

    b.bind(fib);
    auto recurse = b.newLabel();
    auto done = b.newLabel();
    b.addi(10, regZero, 2);
    b.branch(Opcode::Bge, 4, 10, recurse);
    b.jmp(done);               // fib(0)=0, fib(1)=1: a0 unchanged
    b.bind(recurse);
    b.mov(10, 4);              // save n in windowed local
    b.addi(4, 10, -1);
    b.call(fib);               // fib(n-1)
    b.mov(11, 4);              // windowed local
    b.addi(4, 10, -2);
    b.call(fib);               // fib(n-2)
    b.emitR(Opcode::Add, 4, 4, 11);
    b.bind(done);
    b.ret();

    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    const auto stats = runToHalt(makeProgram(b, true), m, &r5);
    EXPECT_EQ(r5, 144u); // fib(12)
    EXPECT_GT(stats.maxCallDepth, 8u);
}

TEST(FuncSim, WindowBasePointerMoves)
{
    AsmBuilder b;
    auto fn = b.newLabel();
    b.call(fn);
    b.halt();
    b.bind(fn);
    b.nop();
    b.ret();
    mem::SparseMemory m;
    isa::Program p = makeProgram(b, true);
    func::FuncSim sim(p, m);
    const Addr w0 = sim.windowBase();
    func::StepRecord rec;
    sim.step(rec); // call
    EXPECT_EQ(sim.windowBase(), w0 - layout::windowFrameBytes);
    sim.step(rec); // nop
    sim.step(rec); // ret
    EXPECT_EQ(sim.windowBase(), w0);
}

TEST(FuncSim, DataSegmentsLoaded)
{
    isa::Program p;
    p.name = "data";
    AsmBuilder b;
    b.li(2, 0x1000'0000);
    b.ld(5, 2, 8);
    b.halt();
    p.code = b.seal();
    p.data.push_back({0x1000'0000, {0, 777, 0}});
    p.finalize();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    runToHalt(p, m, &r5);
    EXPECT_EQ(r5, 777u);
}

TEST(FuncSim, MulWrapsAsTwosComplement)
{
    // Overflowing products wrap (the multiply is done unsigned, which
    // gives the two's-complement bits), on the stepping interpreter
    // and on the BB-IR fast path alike.
    AsmBuilder b;
    b.li(4, 0x8000'0000'0000'0000ULL); // INT64_MIN
    b.li(6, ~0ULL);                     // -1
    b.emitR(Opcode::Mul, 5, 4, 6);
    b.li(7, 0x7fff'ffff'ffff'ffffULL); // INT64_MAX
    b.emitR(Opcode::Mul, 8, 7, 7);
    b.li(9, 0x0123'4567'89ab'cdefULL);
    b.li(10, 0xfedc'ba98'7654'3210ULL);
    b.emitR(Opcode::Mul, 11, 9, 10);
    b.halt();
    const isa::Program p = makeProgram(b);
    for (bool fast : {false, true}) {
        mem::SparseMemory m;
        func::FuncSim sim(p, m);
        if (fast)
            sim.runFast(1000);
        else
            sim.run(1000);
        ASSERT_TRUE(sim.halted());
        EXPECT_EQ(sim.readIntReg(5), 0x8000'0000'0000'0000ULL);
        EXPECT_EQ(sim.readIntReg(8), 1u);
        EXPECT_EQ(sim.readIntReg(11), 0x2236'd88f'e561'8cf0ULL);
    }
}

TEST(FuncSim, GeneratedDataIsSharedNotCopied)
{
    // Generated images are page-aligned and page-disjoint, so a fresh
    // memory maps them in place: loading allocates nothing, and the
    // first write copies only the page it touches.
    for (const char *name : {"mcf", "crafty"}) {
        const isa::Program *p =
            wload::cachedProgram(wload::profileByName(name), false);
        mem::SparseMemory m;
        func::loadProgramData(*p, m);
        EXPECT_EQ(m.allocatedPages(), 0u) << name;
        for (const isa::DataSegment &seg : p->data) {
            for (size_t i = 0; i < seg.words.size(); i += 97)
                ASSERT_EQ(m.read(seg.base + i * 8), seg.words[i]) << name;
        }
        EXPECT_EQ(m.allocatedPages(), 0u) << name;
        const isa::DataSegment &seg = p->data.front();
        const std::uint64_t before = seg.words.front();
        m.write(seg.base, before + 1);
        EXPECT_EQ(m.allocatedPages(), 1u) << name;
        EXPECT_EQ(m.read(seg.base), before + 1);
        EXPECT_EQ(seg.words.front(), before) << "the image is read-only";
    }
}

TEST(FuncSim, DataIsCopiedWhenItCannotBeShared)
{
    // A memory that already holds pages, or a segment that does not
    // start a page, takes the eager copy of the nonzero words.
    isa::Program p;
    p.data.push_back({0x1000'0008, {0, 777, 0}});
    mem::SparseMemory misaligned;
    func::loadProgramData(p, misaligned);
    EXPECT_EQ(misaligned.allocatedPages(), 1u);
    EXPECT_EQ(misaligned.read(0x1000'0010), 777u);

    p.data[0].base = 0x1000'0000;
    mem::SparseMemory used;
    used.write(0x2000'0000, 1);
    func::loadProgramData(p, used);
    EXPECT_EQ(used.allocatedPages(), 2u);
    EXPECT_EQ(used.read(0x1000'0008), 777u);
    EXPECT_EQ(used.read(0x2000'0000), 1u);
}

TEST(FuncSim, RunRespectsInstructionLimit)
{
    // Infinite loop.
    AsmBuilder b;
    auto top = b.newLabel();
    b.bind(top);
    b.addi(5, 5, 1);
    b.jmp(top);
    mem::SparseMemory m;
    isa::Program p = makeProgram(b);
    func::FuncSim sim(p, m);
    const auto stats = sim.run(1000);
    EXPECT_FALSE(sim.halted());
    EXPECT_EQ(stats.insts, 1000u);
}

TEST(FuncSim, CaptureStateReflectsArchitecturalRegisters)
{
    AsmBuilder b;
    b.addi(4, regZero, 20);
    b.addi(5, regZero, 22);
    b.emitR(Opcode::Add, 6, 4, 5);
    b.halt();
    mem::SparseMemory m;
    isa::Program p = makeProgram(b);
    func::FuncSim sim(p, m);
    func::StepRecord rec;
    sim.step(rec);
    sim.step(rec);
    sim.step(rec);

    const func::ArchState s = sim.captureState();
    EXPECT_EQ(s.pc, sim.pc());
    EXPECT_FALSE(s.windowedAbi);
    EXPECT_EQ(s.callDepth, 0u);
    for (RegIndex r = 0; r < isa::numIntRegs; ++r)
        EXPECT_EQ(s.intRegs[r], sim.readIntReg(r)) << "r" << unsigned(r);
    EXPECT_EQ(s.intRegs[6], 42u);
}

TEST(FuncSim, CaptureStateTracksWindowOnCallAndReturn)
{
    AsmBuilder b;
    auto fn = b.newLabel();
    b.addi(4, regZero, 7);
    b.call(fn);
    b.halt();
    b.bind(fn);
    b.addi(5, 4, 1); // callee sees a4 in the new window
    b.ret();
    mem::SparseMemory m;
    isa::Program p = makeProgram(b, true);
    func::FuncSim sim(p, m);
    func::StepRecord rec;
    sim.step(rec); // addi
    sim.step(rec); // call -> window shifts
    const func::ArchState in = sim.captureState();
    EXPECT_TRUE(in.windowedAbi);
    EXPECT_EQ(in.callDepth, 1u);
    EXPECT_EQ(in.windowBase, sim.windowBase());
    sim.step(rec); // addi in callee
    sim.step(rec); // ret -> window shifts back
    const func::ArchState out = sim.captureState();
    EXPECT_EQ(out.callDepth, 0u);
    EXPECT_EQ(out.windowBase, in.windowBase + layout::windowFrameBytes);
}

TEST(FuncSim, RunFastMatchesStepOnWindowedRecursion)
{
    // Deep recursion through the windowed ABI: the decoded-BB fast
    // path and the stepping interpreter must stay in lockstep on pc,
    // depth, window base and every visible register.
    AsmBuilder b;
    auto fib = b.newLabel();
    auto recurse = b.newLabel();
    auto done = b.newLabel();
    b.addi(4, regZero, 12);
    b.call(fib);
    b.halt();
    b.bind(fib);
    b.addi(5, regZero, 2);
    b.branch(Opcode::Bge, 4, 5, recurse);
    b.jmp(done);
    b.bind(recurse);
    b.mov(10, 4);
    b.addi(4, 10, -1);
    b.call(fib);
    b.mov(11, 4);
    b.addi(4, 10, -2);
    b.call(fib);
    b.emitR(Opcode::Add, 4, 4, 11);
    b.bind(done);
    b.ret();
    isa::Program p = makeProgram(b, true);

    mem::SparseMemory ma, mb;
    func::FuncSim fast(p, ma);
    func::FuncSim slow(p, mb);
    func::StepRecord rec;
    // Compare at many interleaved checkpoints, not just the end.
    while (!slow.halted()) {
        fast.runFast(97);
        for (int i = 0; i < 97 && slow.step(rec); ++i) {
        }
        ASSERT_EQ(fast.pc(), slow.pc());
        ASSERT_EQ(fast.halted(), slow.halted());
        ASSERT_EQ(fast.callDepth(), slow.callDepth());
        ASSERT_EQ(fast.windowBase(), slow.windowBase());
        for (RegIndex r = 0; r < isa::numIntRegs; ++r)
            ASSERT_EQ(fast.readIntReg(r), slow.readIntReg(r))
                << "r" << unsigned(r) << " at pc " << slow.pc();
    }
    EXPECT_TRUE(fast.halted());
    EXPECT_EQ(fast.readIntReg(4), 144u); // fib(12)
}

} // namespace
