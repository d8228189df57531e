/**
 * @file
 * Unit tests for the kernel-level ISA: opcode metadata, latencies and
 * functional semantics of every arithmetic operation.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "isa/opcode.hh"
#include "isa/stream.hh"
#include "sim/config.hh"
#include "sim/rng.hh"

using namespace imagine;

namespace
{

Word
eval2(Opcode op, Word a, Word b)
{
    Word in[3] = {a, b, 0};
    return evalArith(op, in);
}

Word
eval1(Opcode op, Word a)
{
    Word in[3] = {a, 0, 0};
    return evalArith(op, in);
}

} // namespace

TEST(OpInfoTest, TableIsConsistent)
{
    for (int i = 0; i < static_cast<int>(Opcode::NumOpcodes); ++i) {
        const OpInfo &info = opInfo(static_cast<Opcode>(i));
        ASSERT_NE(info.name, nullptr);
        EXPECT_LE(info.numIn, 3);
        if (info.isFp) {
            EXPECT_TRUE(info.isArith);
        }
        if (info.opCount > 0) {
            EXPECT_TRUE(info.isArith);
        }
    }
}

TEST(OpInfoTest, ClassAssignments)
{
    EXPECT_EQ(opInfo(Opcode::Fadd).cls, FuClass::Adder);
    EXPECT_EQ(opInfo(Opcode::Fmul).cls, FuClass::Mul);
    EXPECT_EQ(opInfo(Opcode::Fdiv).cls, FuClass::Dsq);
    EXPECT_EQ(opInfo(Opcode::Fsqrt).cls, FuClass::Dsq);
    EXPECT_EQ(opInfo(Opcode::SpRd).cls, FuClass::Sp);
    EXPECT_EQ(opInfo(Opcode::CommPerm).cls, FuClass::Comm);
    EXPECT_EQ(opInfo(Opcode::In).cls, FuClass::SbIn);
    EXPECT_EQ(opInfo(Opcode::Out).cls, FuClass::SbOut);
    EXPECT_EQ(opInfo(Opcode::Imm).cls, FuClass::None);
    EXPECT_EQ(opInfo(Opcode::Acc).cls, FuClass::None);
}

TEST(OpInfoTest, PackedOpCountsMatchPaperPeaks)
{
    // Peak GOPS comes from four 8-bit ops per adder and two 16-bit ops
    // per multiplier (section 3.1).
    EXPECT_EQ(opInfo(Opcode::Add8x4).opCount, 4);
    EXPECT_EQ(opInfo(Opcode::Absd8x4).opCount, 4);
    EXPECT_EQ(opInfo(Opcode::Add16x2).opCount, 2);
    EXPECT_EQ(opInfo(Opcode::Dot16x2).opCount, 2);
    EXPECT_EQ(opInfo(Opcode::Fadd).opCount, 1);
}

TEST(LatencyTest, MatchesConfig)
{
    MachineConfig cfg;
    EXPECT_EQ(opLatency(Opcode::Fadd, cfg), cfg.latFpAdd);
    EXPECT_EQ(opLatency(Opcode::Fmul, cfg), cfg.latFpMul);
    EXPECT_EQ(opLatency(Opcode::Fdiv, cfg), cfg.latDsq);
    EXPECT_EQ(opLatency(Opcode::Iadd, cfg), cfg.latIntAdd);
    EXPECT_EQ(opLatency(Opcode::In, cfg), cfg.latSbRead);
    EXPECT_EQ(opLatency(Opcode::Acc, cfg), 0);
    EXPECT_EQ(opOccupancy(Opcode::Fdiv, cfg), cfg.dsqOccupancy);
    EXPECT_EQ(opOccupancy(Opcode::Fadd, cfg), 1);
}

TEST(UnitsTest, PerClusterCounts)
{
    MachineConfig cfg;
    EXPECT_EQ(unitsPerCluster(FuClass::Adder, cfg), 3);
    EXPECT_EQ(unitsPerCluster(FuClass::Mul, cfg), 2);
    EXPECT_EQ(unitsPerCluster(FuClass::Dsq, cfg), 1);
    EXPECT_EQ(unitsPerCluster(FuClass::Sp, cfg), 1);
    EXPECT_EQ(unitsPerCluster(FuClass::Comm, cfg), 1);
}

TEST(EvalTest, FloatArithmetic)
{
    EXPECT_FLOAT_EQ(wordToFloat(eval2(Opcode::Fadd, floatToWord(1.5f),
                                      floatToWord(2.25f))),
                    3.75f);
    EXPECT_FLOAT_EQ(wordToFloat(eval2(Opcode::Fsub, floatToWord(1.0f),
                                      floatToWord(4.0f))),
                    -3.0f);
    EXPECT_FLOAT_EQ(wordToFloat(eval2(Opcode::Fmul, floatToWord(3.0f),
                                      floatToWord(-2.0f))),
                    -6.0f);
    EXPECT_FLOAT_EQ(wordToFloat(eval2(Opcode::Fdiv, floatToWord(1.0f),
                                      floatToWord(8.0f))),
                    0.125f);
    EXPECT_FLOAT_EQ(wordToFloat(eval1(Opcode::Fsqrt, floatToWord(9.0f))),
                    3.0f);
    EXPECT_FLOAT_EQ(wordToFloat(eval1(Opcode::Fabs, floatToWord(-2.5f))),
                    2.5f);
    EXPECT_FLOAT_EQ(wordToFloat(eval1(Opcode::Fneg, floatToWord(2.5f))),
                    -2.5f);
    EXPECT_EQ(eval2(Opcode::Flt, floatToWord(1.0f), floatToWord(2.0f)), 1u);
    EXPECT_EQ(eval2(Opcode::Flt, floatToWord(2.0f), floatToWord(1.0f)), 0u);
}

TEST(EvalTest, FloatIntConversion)
{
    EXPECT_EQ(wordToInt(eval1(Opcode::Ftoi, floatToWord(-3.7f))), -3);
    EXPECT_FLOAT_EQ(wordToFloat(eval1(Opcode::Itof, intToWord(-12))),
                    -12.0f);
}

TEST(EvalTest, IntegerArithmetic)
{
    EXPECT_EQ(wordToInt(eval2(Opcode::Iadd, intToWord(-5), intToWord(3))),
              -2);
    EXPECT_EQ(wordToInt(eval2(Opcode::Isub, intToWord(3), intToWord(5))),
              -2);
    EXPECT_EQ(wordToInt(eval2(Opcode::Imul, intToWord(-4), intToWord(6))),
              -24);
    EXPECT_EQ(eval2(Opcode::Iand, 0xff00ff00u, 0x0ff00ff0u), 0x0f000f00u);
    EXPECT_EQ(eval2(Opcode::Shl, 1, 4), 16u);
    EXPECT_EQ(eval2(Opcode::Shr, 0x80000000u, 31), 1u);
    EXPECT_EQ(wordToInt(eval2(Opcode::Sra, intToWord(-16), 2)), -4);
    EXPECT_EQ(wordToInt(eval2(Opcode::Imin, intToWord(-7), intToWord(2))),
              -7);
    EXPECT_EQ(wordToInt(eval1(Opcode::Iabs, intToWord(-9))), 9);

    // Overflow wraps two's-complement, like the hardware ALU.
    const Word intMax = 0x7fffffffu, intMin = 0x80000000u;
    EXPECT_EQ(eval2(Opcode::Iadd, intMax, 1), intMin);
    EXPECT_EQ(eval2(Opcode::Iadd, intMin, intToWord(-1)), intMax);
    EXPECT_EQ(eval2(Opcode::Isub, intMin, 1), intMax);
    EXPECT_EQ(eval2(Opcode::Isub, intMax, intToWord(-1)), intMin);
    EXPECT_EQ(eval2(Opcode::Imul, 0x10000u, 0x10000u), 0u);
    EXPECT_EQ(eval2(Opcode::Imul, intMax, 2), 0xfffffffeu);
    EXPECT_EQ(eval2(Opcode::Imul, intMin, intToWord(-1)), intMin);
    EXPECT_EQ(eval1(Opcode::Iabs, intMin), intMin);
}

TEST(EvalTest, Select)
{
    Word in[3] = {1, 0xaaaaaaaa, 0xbbbbbbbb};
    EXPECT_EQ(evalArith(Opcode::Select, in), 0xaaaaaaaau);
    in[0] = 0;
    EXPECT_EQ(evalArith(Opcode::Select, in), 0xbbbbbbbbu);
}

TEST(EvalTest, Packed16)
{
    Word a = pack16(1000, 2000);
    Word b = pack16(3000, 500);
    Word sum = eval2(Opcode::Add16x2, a, b);
    EXPECT_EQ(sub16(sum, 1), 4000);
    EXPECT_EQ(sub16(sum, 0), 2500);
    Word ad = eval2(Opcode::Absd16x2, a, b);
    EXPECT_EQ(sub16(ad, 1), 2000);
    EXPECT_EQ(sub16(ad, 0), 1500);
    EXPECT_EQ(wordToInt(eval1(Opcode::Hadd16x2, a)), 3000);
    // Signed behaviour.
    Word neg = pack16(static_cast<uint16_t>(-100), 50);
    EXPECT_EQ(wordToInt(eval1(Opcode::Hadd16x2, neg)), -50);
}

TEST(EvalTest, Dot16x2)
{
    Word a = pack16(static_cast<uint16_t>(-3), 2);
    Word b = pack16(7, static_cast<uint16_t>(-4));
    // -3*7 + 2*(-4) = -29
    EXPECT_EQ(wordToInt(eval2(Opcode::Dot16x2, a, b)), -29);

    // (-32768)^2 + (-32768)^2 = 2^31 wraps to INT_MIN.
    Word m = pack16(0x8000, 0x8000);
    EXPECT_EQ(eval2(Opcode::Dot16x2, m, m), 0x80000000u);
    // One product alone fits: (-32768)^2 + 0 = 2^30.
    EXPECT_EQ(eval2(Opcode::Dot16x2, m, pack16(0x8000, 0)), 0x40000000u);
}

TEST(EvalTest, Packed8)
{
    Word a = pack8(10, 20, 30, 40);
    Word b = pack8(5, 25, 2, 50);
    Word d = eval2(Opcode::Absd8x4, a, b);
    EXPECT_EQ(sub8(d, 3), 5);
    EXPECT_EQ(sub8(d, 2), 5);
    EXPECT_EQ(sub8(d, 1), 28);
    EXPECT_EQ(sub8(d, 0), 10);
    EXPECT_EQ(eval1(Opcode::Hadd8x4, a), 100u);
}

TEST(EvalTest, PackedMatchesScalarProperty)
{
    // Property: packed absolute difference equals per-lane scalar
    // absolute difference for random inputs.
    Rng rng(99);
    for (int trial = 0; trial < 1000; ++trial) {
        Word a = rng.next();
        Word b = rng.next();
        Word d = eval2(Opcode::Absd8x4, a, b);
        for (int i = 0; i < 4; ++i) {
            int expect = std::abs(static_cast<int>(sub8(a, i)) -
                                  static_cast<int>(sub8(b, i)));
            EXPECT_EQ(sub8(d, i), expect);
        }
        Word s = eval2(Opcode::Add16x2, a, b);
        for (int i = 0; i < 2; ++i) {
            uint16_t expect = static_cast<uint16_t>(sub16(a, i) +
                                                    sub16(b, i));
            EXPECT_EQ(sub16(s, i), expect);
        }
    }
}

TEST(StreamIsaTest, Defaults)
{
    StreamInstr si;
    EXPECT_EQ(si.kind, StreamOpKind::Sync);
    EXPECT_FALSE(isMemOp(si.kind));
    EXPECT_TRUE(isMemOp(StreamOpKind::MemLoad));
    EXPECT_TRUE(isMemOp(StreamOpKind::MemStore));
    EXPECT_FALSE(isMemOp(StreamOpKind::KernelExec));
}

TEST(ConfigTest, PeakRatesMatchPaper)
{
    MachineConfig cfg;
    // 48 FPUs... the paper's 8.13 GFLOPS peak is 40 adder+multiplier
    // slots + the divide/square-root unit contribution at 200 MHz; our
    // model counts the 40 pipelined units = 8.0 GFLOPS.
    EXPECT_NEAR(cfg.peakFlops(), 8.0e9, 1e6);
    EXPECT_NEAR(cfg.peakOps(), 25.6e9, 1e6);
    EXPECT_NEAR(cfg.peakSrfBytes(), 12.8e9, 1e6);
    EXPECT_NEAR(cfg.peakMemBytes(), 1.6e9, 1e6);
    EXPECT_NEAR(cfg.hostCyclesPerInstr(), 200.0 / 2.03, 0.1);
}

TEST(ConfigTest, PresetsDiffer)
{
    MachineConfig lab = MachineConfig::devBoard();
    MachineConfig sim = MachineConfig::isim();
    EXPECT_TRUE(lab.quirkPrechargeBug);
    EXPECT_FALSE(sim.quirkPrechargeBug);
    EXPECT_GT(lab.quirkIssueLatency, sim.quirkIssueLatency);
    EXPECT_GT(lab.hostRoundTripCycles, sim.hostRoundTripCycles);
}
