#include "isa/opcode.hh"

#include "isa/arith_inline.hh"

#include <cmath>

#include "sim/log.hh"

namespace imagine
{

namespace
{

// Indexed by Opcode value; keep in exact declaration order.
const OpInfo opTable[] = {
    // name        cls             in  ops fp     arith
    {"imm",        FuClass::None,  0,  0,  false, false},
    {"ucrrd",      FuClass::None,  0,  0,  false, false},
    {"cid",        FuClass::None,  0,  0,  false, false},
    {"iter",       FuClass::None,  0,  0,  false, false},

    {"fadd",       FuClass::Adder, 2,  1,  true,  true},
    {"fsub",       FuClass::Adder, 2,  1,  true,  true},
    {"fabs",       FuClass::Adder, 1,  1,  true,  true},
    {"fneg",       FuClass::Adder, 1,  1,  true,  true},
    {"fmin",       FuClass::Adder, 2,  1,  true,  true},
    {"fmax",       FuClass::Adder, 2,  1,  true,  true},
    {"flt",        FuClass::Adder, 2,  1,  true,  true},
    {"fle",        FuClass::Adder, 2,  1,  true,  true},
    {"feq",        FuClass::Adder, 2,  1,  true,  true},
    {"ftoi",       FuClass::Adder, 1,  1,  true,  true},
    {"itof",       FuClass::Adder, 1,  1,  true,  true},

    {"iadd",       FuClass::Adder, 2,  1,  false, true},
    {"isub",       FuClass::Adder, 2,  1,  false, true},
    {"iand",       FuClass::Adder, 2,  1,  false, true},
    {"ior",        FuClass::Adder, 2,  1,  false, true},
    {"ixor",       FuClass::Adder, 2,  1,  false, true},
    {"shl",        FuClass::Adder, 2,  1,  false, true},
    {"shr",        FuClass::Adder, 2,  1,  false, true},
    {"sra",        FuClass::Adder, 2,  1,  false, true},
    {"ilt",        FuClass::Adder, 2,  1,  false, true},
    {"ile",        FuClass::Adder, 2,  1,  false, true},
    {"ieq",        FuClass::Adder, 2,  1,  false, true},
    {"imin",       FuClass::Adder, 2,  1,  false, true},
    {"imax",       FuClass::Adder, 2,  1,  false, true},
    {"iabs",       FuClass::Adder, 1,  1,  false, true},
    {"select",     FuClass::Adder, 3,  1,  false, true},
    {"mov",        FuClass::Adder, 1,  0,  false, false},

    {"add16x2",    FuClass::Adder, 2,  2,  false, true},
    {"sub16x2",    FuClass::Adder, 2,  2,  false, true},
    {"absd16x2",   FuClass::Adder, 2,  2,  false, true},
    {"hadd16x2",   FuClass::Adder, 1,  2,  false, true},
    {"min16x2",    FuClass::Adder, 2,  2,  false, true},
    {"max16x2",    FuClass::Adder, 2,  2,  false, true},
    {"shr16x2",    FuClass::Adder, 2,  2,  false, true},
    {"add8x4",     FuClass::Adder, 2,  4,  false, true},
    {"sub8x4",     FuClass::Adder, 2,  4,  false, true},
    {"absd8x4",    FuClass::Adder, 2,  4,  false, true},
    {"hadd8x4",    FuClass::Adder, 1,  4,  false, true},

    {"fmul",       FuClass::Mul,   2,  1,  true,  true},
    {"imul",       FuClass::Mul,   2,  1,  false, true},
    {"mul16x2",    FuClass::Mul,   2,  2,  false, true},
    {"dot16x2",    FuClass::Mul,   2,  2,  false, true},

    {"fdiv",       FuClass::Dsq,   2,  1,  true,  true},
    {"fsqrt",      FuClass::Dsq,   1,  1,  true,  true},

    {"sprd",       FuClass::Sp,    1,  0,  false, false},
    {"spwr",       FuClass::Sp,    2,  0,  false, false},

    {"commperm",   FuClass::Comm,  2,  0,  false, false},

    {"in",         FuClass::SbIn,  0,  0,  false, false},
    {"out",        FuClass::SbOut, 1,  0,  false, false},
    {"outcond",    FuClass::SbOut, 2,  0,  false, false},
    {"ucrwr",      FuClass::None,  1,  0,  false, false},
    {"acc",        FuClass::None,  2,  0,  false, false},
};

static_assert(sizeof(opTable) / sizeof(opTable[0]) ==
                  static_cast<size_t>(Opcode::NumOpcodes),
              "opTable out of sync with Opcode enum");

} // namespace

const OpInfo &
opInfo(Opcode op)
{
    return opTable[static_cast<size_t>(op)];
}

int
opLatency(Opcode op, const MachineConfig &cfg)
{
    switch (op) {
      case Opcode::Imm:
      case Opcode::UcrRd:
      case Opcode::Cid:
      case Opcode::Iter:
      case Opcode::UcrWr:
        return cfg.latMov;
      case Opcode::Acc:
        return 0;
      case Opcode::Fadd: case Opcode::Fsub: case Opcode::Fabs:
      case Opcode::Fneg: case Opcode::Fmin: case Opcode::Fmax:
      case Opcode::Flt: case Opcode::Fle: case Opcode::Feq:
      case Opcode::Ftoi: case Opcode::Itof:
        return cfg.latFpAdd;
      case Opcode::Iadd: case Opcode::Isub: case Opcode::Iand:
      case Opcode::Ior: case Opcode::Ixor: case Opcode::Shl:
      case Opcode::Shr: case Opcode::Sra: case Opcode::Ilt:
      case Opcode::Ile: case Opcode::Ieq: case Opcode::Imin:
      case Opcode::Imax: case Opcode::Iabs: case Opcode::Select:
        return cfg.latIntAdd;
      case Opcode::Mov:
        return cfg.latMov;
      case Opcode::Add16x2: case Opcode::Sub16x2: case Opcode::Absd16x2:
      case Opcode::Hadd16x2: case Opcode::Min16x2: case Opcode::Max16x2:
      case Opcode::Shr16x2:
      case Opcode::Add8x4: case Opcode::Sub8x4: case Opcode::Absd8x4:
      case Opcode::Hadd8x4:
        return cfg.latSubword;
      case Opcode::Fmul:
        return cfg.latFpMul;
      case Opcode::Imul:
        return cfg.latIntMul;
      case Opcode::Mul16x2: case Opcode::Dot16x2:
        return cfg.latIntMul;
      case Opcode::Fdiv: case Opcode::Fsqrt:
        return cfg.latDsq;
      case Opcode::SpRd:
        return cfg.latSpRead;
      case Opcode::SpWr:
        return cfg.latSpWrite;
      case Opcode::CommPerm:
        return cfg.latComm;
      case Opcode::In:
        return cfg.latSbRead;
      case Opcode::Out: case Opcode::OutCond:
        return cfg.latSbWrite;
      default:
        IMAGINE_PANIC("opLatency: bad opcode %d", static_cast<int>(op));
    }
}

int
opOccupancy(Opcode op, const MachineConfig &cfg)
{
    if (op == Opcode::Fdiv || op == Opcode::Fsqrt)
        return cfg.dsqOccupancy;
    return 1;
}

int
unitsPerCluster(FuClass cls, const MachineConfig &cfg)
{
    switch (cls) {
      case FuClass::None:
        return 0;
      case FuClass::Adder:
        return cfg.numAdders;
      case FuClass::Mul:
        return cfg.numMultipliers;
      case FuClass::Dsq:
      case FuClass::Sp:
      case FuClass::Comm:
        return 1;
      case FuClass::SbIn:
        return cfg.sbInPorts;
      case FuClass::SbOut:
        return cfg.sbOutPorts;
      default:
        IMAGINE_PANIC("unitsPerCluster: bad class %d",
                      static_cast<int>(cls));
    }
}

/**
 * Runtime dispatch into the shared per-opcode scalar evaluators
 * (isa/arith_inline.hh) - the same instantiations the micro-op engine
 * inlines into its 8-lane loops, so golden models and the simulator
 * share one functional definition per opcode.
 */
Word
evalArith(Opcode op, const Word in[3])
{
    switch (op) {
#define IMAGINE_M(name)                                                  \
      case Opcode::name:                                                 \
        return evalArithScalar<Opcode::name>(in[0], in[1], in[2]);
    IMAGINE_ARITH_OPS(IMAGINE_M)
#undef IMAGINE_M
      default:
        IMAGINE_PANIC("evalArith: opcode %s is not a pure arithmetic op",
                      opInfo(op).name);
    }
}

} // namespace imagine
