/**
 * @file
 * Unit tests for the core module: reservation-station nodes (wave
 * staleness, re-fire on value change, value-identity squash, commit
 * ports), the register-forwarding unit (subscriptions, waves,
 * commit, flush), and Processor-level integration for control
 * misspeculation and halting.
 */

#include <gtest/gtest.h>

#include "panic_check.hh"

#include "compiler/builder.hh"
#include "core/exec_node.hh"
#include "core/reg_unit.hh"
#include "sim/simulator.hh"

namespace edge::core {
namespace {

using isa::Opcode;
using isa::Target;

class ExecNodeTest : public ::testing::Test
{
  protected:
    ExecNodeTest()
        : stats("t"),
          ns{stats.counter("core.alu_issues", ""),
             stats.counter("core.alu_reexecs", ""),
             stats.counter("core.upgrades", ""),
             stats.counter("core.squashes", ""),
             stats.histogram("core.wave_depth", "")},
          node(params, ns, &events)
    {
    }

    /** Map `add imm -> w0` style instruction at (frame 0, local 0). */
    void
    mapAdd()
    {
        add.op = Opcode::ADD;
        add.targets[0] = Target::toWrite(0);
        node.mapInst(0, 0, /*seq=*/1, /*slot=*/0, add);
    }

    // The node points at mapped instructions: they must outlive it.
    isa::Instruction add;
    CoreParams params;
    StatSet stats;
    NodeStats ns;
    std::vector<NodeEvent> events;
    ExecNode node;
};

TEST_F(ExecNodeTest, ExecutesWhenAllOperandsArrive)
{
    mapAdd();
    node.deliver(0, 0, 0, 3, ValState::Final, 1, 0);
    node.tick(0);
    EXPECT_TRUE(events.empty()); // operand 1 missing
    node.deliver(0, 0, 1, 4, ValState::Final, 1, 0);
    node.tick(1);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].value, 7u);
    EXPECT_EQ(events[0].state, ValState::Final);
    EXPECT_EQ(events[0].when, 1 + params.latIntAlu);
}

TEST_F(ExecNodeTest, SpecInputsGiveSpecOutput)
{
    mapAdd();
    node.deliver(0, 0, 0, 3, ValState::Spec, 1, 0);
    node.deliver(0, 0, 1, 4, ValState::Final, 1, 0);
    node.tick(0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].state, ValState::Spec);
}

TEST_F(ExecNodeTest, ValueChangeRefiresWithHigherWave)
{
    mapAdd();
    node.deliver(0, 0, 0, 3, ValState::Spec, 1, 0);
    node.deliver(0, 0, 1, 4, ValState::Spec, 1, 0);
    node.tick(0);
    node.deliver(0, 0, 0, 10, ValState::Spec, 2, 0); // new wave
    node.tick(1);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].value, 14u);
    EXPECT_GT(events[1].wave, events[0].wave);
    EXPECT_EQ(stats.counterValue("core.alu_reexecs"), 1u);
}

TEST_F(ExecNodeTest, StaleWavesAreIgnored)
{
    mapAdd();
    node.deliver(0, 0, 0, 3, ValState::Spec, 5, 0);
    node.deliver(0, 0, 1, 4, ValState::Spec, 1, 0);
    node.tick(0);
    EXPECT_FALSE(node.deliver(0, 0, 0, 99, ValState::Spec, 4, 0));
    node.tick(1);
    EXPECT_EQ(events.size(), 1u); // no re-fire from the stale value
}

TEST_F(ExecNodeTest, IdenticalReExecutionIsSquashed)
{
    mapAdd();
    node.deliver(0, 0, 0, 3, ValState::Spec, 1, 0);
    node.deliver(0, 0, 1, 4, ValState::Spec, 1, 0);
    node.tick(0);
    // Both operands change so that the sum is unchanged.
    node.deliver(0, 0, 0, 4, ValState::Spec, 2, 0);
    node.deliver(0, 0, 1, 3, ValState::Spec, 2, 0);
    node.tick(1);
    EXPECT_EQ(events.size(), 1u); // re-executed but squashed
    EXPECT_EQ(stats.counterValue("core.squashes"), 1u);
    EXPECT_EQ(stats.counterValue("core.alu_reexecs"), 1u);
}

TEST_F(ExecNodeTest, CommitWaveUpgradeUsesCommitPort)
{
    mapAdd();
    node.deliver(0, 0, 0, 3, ValState::Spec, 1, 0);
    node.deliver(0, 0, 1, 4, ValState::Final, 1, 0);
    node.tick(0);
    // The Spec operand upgrades with the same value.
    node.deliver(0, 0, 0, 3, ValState::Final, 2, 0);
    node.tick(1);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].state, ValState::Final);
    EXPECT_EQ(events[1].value, 7u);
    EXPECT_TRUE(events[1].statusOnly);
    EXPECT_EQ(stats.counterValue("core.upgrades"), 1u);
    EXPECT_EQ(stats.counterValue("core.alu_issues"), 1u); // no ALU
}

TEST_F(ExecNodeTest, FinalOperandValueChangePanics)
{
    mapAdd();
    node.deliver(0, 0, 0, 3, ValState::Final, 1, 0);
    EXPECT_PANIC(node.deliver(0, 0, 0, 8, ValState::Final, 2, 0),
                 "protocol violation");
}

TEST_F(ExecNodeTest, OldestBlockIssuesFirst)
{
    isa::Instruction movi;
    movi.op = Opcode::MOVI;
    movi.imm = 1;
    node.mapInst(1, 0, /*seq=*/9, /*slot=*/0, movi);
    node.mapInst(2, 0, /*seq=*/4, /*slot=*/0, movi);
    node.tick(0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].seq, 4u); // older block wins the ALU
}

TEST_F(ExecNodeTest, StoreEmitsResolveWithSplitStates)
{
    isa::Instruction st;
    st.op = Opcode::STD;
    st.lsid = 3;
    node.mapInst(0, 0, 1, 0, st);
    node.deliver(0, 0, 0, 0x100, ValState::Final, 1, 0); // addr
    node.deliver(0, 0, 1, 42, ValState::Spec, 1, 0);     // data
    node.tick(0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, NodeEvent::Kind::StoreResolve);
    EXPECT_EQ(events[0].addr, 0x100u);
    EXPECT_EQ(events[0].value, 42u);
    EXPECT_EQ(events[0].addrState, ValState::Final);
    EXPECT_EQ(events[0].state, ValState::Spec);
    EXPECT_EQ(events[0].lsid, 3u);
}

TEST_F(ExecNodeTest, LoadEmitsRequestWithSlot)
{
    // The request names the load's slot; its reply's targets are read
    // from that instruction of the program, not carried along.
    isa::Instruction ld;
    ld.op = Opcode::LDD;
    ld.imm = 8;
    ld.lsid = 2;
    ld.targets[0] = Target::toOperand(5, 1);
    node.mapInst(0, 0, 1, /*slot=*/6, ld);
    node.deliver(0, 0, 0, 0x100, ValState::Final, 1, 0);
    node.tick(0);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, NodeEvent::Kind::LoadRequest);
    EXPECT_EQ(events[0].addr, 0x108u);
    EXPECT_EQ(events[0].slot, 6u);
    EXPECT_EQ(events[0].lsid, 2u);
}

TEST_F(ExecNodeTest, ReusedSlotForgetsItsPreviousInstruction)
{
    // First occupant: a store with Final operands, sent late.
    isa::Instruction st0;
    st0.op = Opcode::STD;
    st0.lsid = 1;
    node.mapInst(0, 0, /*seq=*/1, /*slot=*/0, st0);
    node.deliver(0, 0, 0, 0x100, ValState::Final, 3, 0);
    node.deliver(0, 0, 1, 7, ValState::Final, 3, 0);
    node.tick(100);
    ASSERT_EQ(events.size(), 1u);
    node.clearFrame(0);
    events.clear();

    // A different instruction in the same slot.
    isa::Instruction st1;
    st1.op = Opcode::STW;
    st1.imm = 8;
    st1.lsid = 2;
    node.mapInst(0, 0, /*seq=*/2, /*slot=*/3, st1);
    // Wave 1 is new on this slot, although the old occupant saw wave 3.
    EXPECT_TRUE(node.deliver(0, 0, 0, 0x200, ValState::Spec, 1, 0));
    node.tick(5);
    EXPECT_TRUE(events.empty()); // the old data operand is not seen
    EXPECT_TRUE(node.deliver(0, 0, 1, 9, ValState::Spec, 1, 0));
    node.tick(6);
    ASSERT_EQ(events.size(), 1u);
    const NodeEvent &ev = events[0];
    EXPECT_EQ(ev.kind, NodeEvent::Kind::StoreResolve);
    EXPECT_EQ(ev.wave, 1u);
    // No wait on the old occupant's last send (cycle 101).
    EXPECT_EQ(ev.when, 6 + params.latMemAddr);
    EXPECT_EQ(ev.seq, 2u);
    EXPECT_EQ(ev.slot, 3u);
    EXPECT_EQ(ev.lsid, 2u);
    EXPECT_EQ(ev.addr, 0x208u);
    EXPECT_EQ(ev.value, 9u);
    EXPECT_EQ(ev.addrState, ValState::Spec);
    EXPECT_EQ(ev.state, ValState::Spec);

    // Both halves turning Final is news to the new occupant: one
    // commit-wave upgrade carries the split states.
    node.deliver(0, 0, 0, 0x200, ValState::Final, 2, 0);
    node.deliver(0, 0, 1, 9, ValState::Final, 2, 0);
    node.tick(7);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_TRUE(events[1].statusOnly);
    EXPECT_EQ(events[1].wave, 2u);
    EXPECT_EQ(events[1].addrState, ValState::Final);
    EXPECT_EQ(events[1].state, ValState::Final);
}

TEST_F(ExecNodeTest, SixteenFramesIssueOldestFirstAcrossWantWords)
{
    // 16 frames x 8 slots = 128 RS slots: two want-bitmap words.
    CoreParams p16;
    p16.numFrames = 16;
    ExecNode wide(p16, ns, &events);
    isa::Instruction movi;
    movi.op = Opcode::MOVI;
    // Frame -> seq: the oldest block sits in the second word.
    const std::pair<unsigned, DynBlockSeq> maps[] = {
        {2, 7}, {15, 3}, {9, 5}, {0, 8}, {12, 4}};
    for (auto [frame, seq] : maps)
        wide.mapInst(frame, p16.slotsPerNode - 1, seq, 0, movi);
    for (Cycle now = 0; now < 5; ++now)
        EXPECT_TRUE(wide.tick(now));
    EXPECT_FALSE(wide.hasWork());
    ASSERT_EQ(events.size(), 5u);
    const DynBlockSeq order[] = {3, 4, 5, 7, 8};
    for (unsigned i = 0; i < 5; ++i)
        EXPECT_EQ(events[i].seq, order[i]) << "issue " << i;
}

TEST_F(ExecNodeTest, ClearFrameFreesSlots)
{
    mapAdd();
    EXPECT_EQ(node.occupancy(), 1u);
    node.clearFrame(0);
    EXPECT_EQ(node.occupancy(), 0u);
}

// ---------------------------------------------------------------------------
// Register unit.
// ---------------------------------------------------------------------------

class RegUnitTest : public ::testing::Test
{
  protected:
    RegUnitTest()
        : stats("t"),
          init(isa::kNumArchRegs, 0),
          unit(nullptr)
    {
        init[3] = 333;
        unit = std::make_unique<RegUnit>(params, init, stats, &forwards);

        // writer: writes r3; reader: reads r3.
        compiler::ProgramBuilder pb("t");
        auto &w = pb.newBlock("writer");
        w.writeReg(3, w.addi(w.readReg(3), 1));
        w.branchHalt();
        auto &r = pb.newBlock("reader");
        r.writeReg(4, r.readReg(3));
        r.branchHalt();
        prog = std::make_unique<isa::Program>(pb.build());
    }

    /** Frames deliberately differ from seqs (and from age order). */
    static unsigned frameOf(DynBlockSeq seq) { return 7 - seq; }

    const isa::Block &writer() { return prog->block(0); }
    const isa::Block &reader() { return prog->block(1); }

    CoreParams params;
    StatSet stats;
    std::vector<Word> init;
    std::unique_ptr<RegUnit> unit;
    std::unique_ptr<isa::Program> prog;
    std::vector<RegForward> forwards;
};

TEST_F(RegUnitTest, ArchitecturalReadIsImmediateAndFinal)
{
    unit->mapBlock(0, frameOf(1), 1, reader());
    ASSERT_EQ(forwards.size(), 1u);
    EXPECT_EQ(forwards[0].value, 333u);
    EXPECT_EQ(forwards[0].state, ValState::Final);
}

TEST_F(RegUnitTest, ReaderSubscribesToInFlightWriter)
{
    unit->mapBlock(0, frameOf(1), 1, writer());
    forwards.clear();
    unit->mapBlock(0, frameOf(2), 2, reader());
    // The reader subscribed to the in-flight writer; nothing can be
    // forwarded until the writer's value actually arrives.
    EXPECT_TRUE(forwards.empty());
    unit->writeArrived(5, frameOf(1), 1, 0, 334, ValState::Final, 1, 0);
    ASSERT_EQ(forwards.size(), 1u);
    EXPECT_EQ(forwards[0].readerSeq, 2u);
    EXPECT_EQ(forwards[0].value, 334u);
    EXPECT_EQ(forwards[0].state, ValState::Final);
}

TEST_F(RegUnitTest, LateSubscriberGetsCurrentValue)
{
    unit->mapBlock(0, frameOf(1), 1, writer());
    unit->writeArrived(5, frameOf(1), 1, 0, 334, ValState::Spec, 1, 0);
    forwards.clear();
    unit->mapBlock(6, frameOf(2), 2, reader());
    ASSERT_EQ(forwards.size(), 1u);
    EXPECT_EQ(forwards[0].value, 334u);
    EXPECT_EQ(forwards[0].state, ValState::Spec);
}

TEST_F(RegUnitTest, WaveValueChangeReforwards)
{
    unit->mapBlock(0, frameOf(1), 1, writer());
    unit->mapBlock(0, frameOf(2), 2, reader());
    unit->writeArrived(5, frameOf(1), 1, 0, 334, ValState::Spec, 1, 0);
    std::size_t n = forwards.size();
    unit->writeArrived(9, frameOf(1), 1, 0, 500, ValState::Spec, 2, 1);
    ASSERT_GT(forwards.size(), n);
    EXPECT_EQ(forwards.back().value, 500u);
    EXPECT_EQ(stats.counterValue("regs.rewrites"), 1u);
}

TEST_F(RegUnitTest, StaleWriteWavesAreDropped)
{
    unit->mapBlock(0, frameOf(1), 1, writer());
    unit->writeArrived(5, frameOf(1), 1, 0, 334, ValState::Final, 5, 0);
    std::size_t n = forwards.size();
    unit->writeArrived(6, frameOf(1), 1, 0, 111, ValState::Spec, 3, 0); // stale
    EXPECT_EQ(forwards.size(), n);
    EXPECT_TRUE(unit->blockWritesFinal(frameOf(1), true));
}

TEST_F(RegUnitTest, CommitAppliesWritesArchitecturally)
{
    unit->mapBlock(0, frameOf(1), 1, writer());
    unit->writeArrived(5, frameOf(1), 1, 0, 334, ValState::Final, 1, 0);
    unit->commitBlock(frameOf(1));
    EXPECT_EQ(unit->archRegs()[3], 334u);
    forwards.clear();
    unit->mapBlock(9, frameOf(2), 2, reader());
    EXPECT_EQ(forwards[0].value, 334u); // now from the arch RF
}

TEST_F(RegUnitTest, FlushRemovesSubscriptions)
{
    unit->mapBlock(0, frameOf(1), 1, writer());
    unit->mapBlock(0, frameOf(2), 2, reader());
    unit->flushFrom(2);
    forwards.clear();
    unit->writeArrived(5, frameOf(1), 1, 0, 334, ValState::Final, 1, 0);
    EXPECT_TRUE(forwards.empty()); // no subscriber left
    EXPECT_EQ(unit->numBlocks(), 1u);
}

TEST_F(RegUnitTest, OutOfOrderCommitPanics)
{
    unit->mapBlock(0, frameOf(1), 1, writer());
    unit->mapBlock(0, frameOf(2), 2, writer());
    unit->writeArrived(5, frameOf(2), 2, 0, 1, ValState::Final, 1, 0);
    EXPECT_PANIC(unit->commitBlock(frameOf(2)), "out of order");
}

TEST_F(RegUnitTest, WriteCountsTrackArrivalAndFinality)
{
    unit->mapBlock(0, frameOf(1), 1, writer());
    EXPECT_FALSE(unit->blockWritesFinal(frameOf(1), false));
    unit->writeArrived(5, frameOf(1), 1, 0, 334, ValState::Spec, 1, 0);
    EXPECT_TRUE(unit->blockWritesFinal(frameOf(1), false));
    EXPECT_FALSE(unit->blockWritesFinal(frameOf(1), true));
    // A changed Spec value keeps the write present but not Final.
    unit->writeArrived(6, frameOf(1), 1, 0, 335, ValState::Spec, 2, 0);
    EXPECT_FALSE(unit->blockWritesFinal(frameOf(1), true));
    unit->writeArrived(7, frameOf(1), 1, 0, 335, ValState::Final, 3, 0);
    EXPECT_TRUE(unit->blockWritesFinal(frameOf(1), true));
    // Final is sticky: a late Spec duplicate changes nothing.
    unit->writeArrived(8, frameOf(1), 1, 0, 335, ValState::Spec, 4, 0);
    EXPECT_TRUE(unit->blockWritesFinal(frameOf(1), true));
}

TEST_F(RegUnitTest, ReusedFrameDropsWritesForTheFlushedSeq)
{
    unit->mapBlock(0, frameOf(1), 1, writer());
    unit->mapBlock(0, frameOf(2), 2, writer());
    unit->flushFrom(2);
    // Seq 3 reuses seq 2's frame; seq 2's late write must not land.
    unit->mapBlock(1, frameOf(2), 3, writer());
    unit->writeArrived(5, frameOf(2), 2, 0, 99, ValState::Final, 1, 0);
    EXPECT_FALSE(unit->blockWritesFinal(frameOf(2), false));
    unit->writeArrived(6, frameOf(2), 3, 0, 7, ValState::Final, 1, 0);
    EXPECT_TRUE(unit->blockWritesFinal(frameOf(2), true));
    EXPECT_EQ(unit->numBlocks(), 2u);
}

// ---------------------------------------------------------------------------
// Processor-level integration.
// ---------------------------------------------------------------------------

/** Loop whose exit really is data-dependent (mispredictable). */
isa::Program
zigzagProgram(std::uint64_t n)
{
    compiler::ProgramBuilder pb("zigzag");
    pb.setInitReg(1, 0);
    pb.setInitReg(2, n);
    auto &loop = pb.newBlock("loop");
    compiler::Val i = loop.readReg(1);
    // Alternate between two successor blocks based on parity.
    loop.branchCond(loop.andi(i, 1), "odd", "even");
    auto emit = [&](const std::string &name, std::int64_t k) {
        auto &b = pb.newBlock(name);
        compiler::Val j = b.readReg(1);
        compiler::Val j2 = b.addi(j, 1);
        b.writeReg(1, j2);
        b.writeReg(5, b.addi(b.readReg(5), k));
        b.branchCond(b.tlt(j2, b.readReg(2)), "loop", "done");
    };
    emit("odd", 3);
    emit("even", 7);
    auto &done = pb.newBlock("done");
    done.store(done.imm(0x1000), done.readReg(5), 8);
    done.branchHalt();
    pb.setEntry("loop");
    return pb.build();
}

TEST(Processor, HandlesAlternatingControlFlow)
{
    for (const auto &cfg : {sim::Configs::dsre(),
                            sim::Configs::blindFlush()}) {
        sim::Simulator s(zigzagProgram(40), cfg);
        sim::RunResult r = s.run(2'000'000);
        EXPECT_TRUE(r.halted);
        EXPECT_TRUE(r.archMatch);
    }
}

TEST(Processor, TinyWindowStillCorrect)
{
    core::MachineConfig cfg = sim::Configs::dsre();
    cfg.core.numFrames = 1; // no cross-block speculation at all
    sim::Simulator s(zigzagProgram(20), cfg);
    sim::RunResult r = s.run(2'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch);
}

TEST(Processor, DeepWindowStillCorrect)
{
    core::MachineConfig cfg = sim::Configs::dsre();
    cfg.core.numFrames = 16;
    sim::Simulator s(zigzagProgram(200), cfg);
    sim::RunResult r = s.run(2'000'000);
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch);
}

TEST(Processor, SingleBlockProgramHalts)
{
    compiler::ProgramBuilder pb("one");
    auto &b = pb.newBlock("only");
    b.store(b.imm(0x10), b.imm(9), 8);
    b.branchHalt();
    sim::Simulator s(pb.build(), sim::Configs::dsre());
    sim::RunResult r = s.run(100'000);
    EXPECT_TRUE(r.halted);
    EXPECT_TRUE(r.archMatch);
    EXPECT_EQ(r.committedBlocks, 1u);
}

} // namespace
} // namespace edge::core
