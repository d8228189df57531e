/**
 * @file
 * Inline scalar evaluation of the pure arithmetic opcodes.
 *
 * Single source of truth for the functional semantics of every Adder /
 * Mul / Dsq opcode (plus Mov/Select): `evalArithScalar<OP>` is the one
 * implementation, instantiated per opcode at compile time.  The
 * runtime-dispatched `evalArith` (isa/opcode.cc; golden models and the
 * test reference interpreter) and the micro-op engine
 * (cluster/cluster.cc) both dispatch into these instantiations, so the
 * simulator and its references cannot drift — an 8-lane loop whose
 * body is a single instantiation also gives the compiler a
 * branch-free, auto-vectorizable kernel per opcode.
 *
 * The build sets -ffp-contract=off globally, so float expressions here
 * round identically wherever they are inlined.
 */

#ifndef IMAGINE_ISA_ARITH_INLINE_HH
#define IMAGINE_ISA_ARITH_INLINE_HH

#include <cmath>

#include "isa/opcode.hh"
#include "sim/types.hh"

namespace imagine
{

namespace arith_detail
{

inline Word
map16(Word a, Word b, uint16_t (*f)(uint16_t, uint16_t))
{
    return pack16(f(sub16(a, 1), sub16(b, 1)), f(sub16(a, 0), sub16(b, 0)));
}

inline Word
map8(Word a, Word b, uint8_t (*f)(uint8_t, uint8_t))
{
    return pack8(f(sub8(a, 3), sub8(b, 3)), f(sub8(a, 2), sub8(b, 2)),
                 f(sub8(a, 1), sub8(b, 1)), f(sub8(a, 0), sub8(b, 0)));
}

inline uint16_t u16add(uint16_t a, uint16_t b) { return a + b; }
inline uint16_t u16sub(uint16_t a, uint16_t b) { return a - b; }
inline uint16_t
u16absd(uint16_t a, uint16_t b)
{
    int32_t d = static_cast<int16_t>(a) - static_cast<int16_t>(b);
    return static_cast<uint16_t>(d < 0 ? -d : d);
}
inline uint16_t
s16min(uint16_t a, uint16_t b)
{
    return static_cast<int16_t>(a) < static_cast<int16_t>(b) ? a : b;
}
inline uint16_t
s16max(uint16_t a, uint16_t b)
{
    return static_cast<int16_t>(a) > static_cast<int16_t>(b) ? a : b;
}
inline uint16_t
s16mul(uint16_t a, uint16_t b)
{
    return static_cast<uint16_t>(static_cast<int16_t>(a) *
                                 static_cast<int16_t>(b));
}
inline uint8_t u8add(uint8_t a, uint8_t b) { return a + b; }
inline uint8_t u8sub(uint8_t a, uint8_t b) { return a - b; }
inline uint8_t
u8absd(uint8_t a, uint8_t b)
{
    return a > b ? a - b : b - a;
}

} // namespace arith_detail

/**
 * Every pure-arithmetic opcode, for X-macro generation of the
 * evalArith switch, the micro-op handler enum, and the micro-op
 * dispatch cases.  Must cover exactly the opcodes evalArith accepts.
 */
#define IMAGINE_ARITH_OPS(M)                                             \
    M(Fadd) M(Fsub) M(Fabs) M(Fneg) M(Fmin) M(Fmax)                      \
    M(Flt) M(Fle) M(Feq) M(Ftoi) M(Itof)                                 \
    M(Iadd) M(Isub) M(Iand) M(Ior) M(Ixor)                               \
    M(Shl) M(Shr) M(Sra)                                                 \
    M(Ilt) M(Ile) M(Ieq) M(Imin) M(Imax) M(Iabs)                         \
    M(Select) M(Mov)                                                     \
    M(Add16x2) M(Sub16x2) M(Absd16x2) M(Hadd16x2) M(Min16x2)             \
    M(Max16x2) M(Shr16x2)                                                \
    M(Add8x4) M(Sub8x4) M(Absd8x4) M(Hadd8x4)                            \
    M(Fmul) M(Imul) M(Mul16x2) M(Dot16x2)                                \
    M(Fdiv) M(Fsqrt)

/** Evaluate pure-arith opcode @p OP on scalar inputs a, b, c. */
template <Opcode OP>
inline Word
evalArithScalar(Word a, Word b, Word c)
{
    using namespace arith_detail;
    (void)b;
    (void)c;
    if constexpr (OP == Opcode::Fadd)
        return floatToWord(wordToFloat(a) + wordToFloat(b));
    else if constexpr (OP == Opcode::Fsub)
        return floatToWord(wordToFloat(a) - wordToFloat(b));
    else if constexpr (OP == Opcode::Fabs)
        return floatToWord(std::fabs(wordToFloat(a)));
    else if constexpr (OP == Opcode::Fneg)
        return floatToWord(-wordToFloat(a));
    else if constexpr (OP == Opcode::Fmin)
        return floatToWord(std::fmin(wordToFloat(a), wordToFloat(b)));
    else if constexpr (OP == Opcode::Fmax)
        return floatToWord(std::fmax(wordToFloat(a), wordToFloat(b)));
    else if constexpr (OP == Opcode::Flt)
        return wordToFloat(a) < wordToFloat(b) ? 1 : 0;
    else if constexpr (OP == Opcode::Fle)
        return wordToFloat(a) <= wordToFloat(b) ? 1 : 0;
    else if constexpr (OP == Opcode::Feq)
        return wordToFloat(a) == wordToFloat(b) ? 1 : 0;
    else if constexpr (OP == Opcode::Ftoi)
        return intToWord(static_cast<int32_t>(wordToFloat(a)));
    else if constexpr (OP == Opcode::Itof)
        return floatToWord(static_cast<float>(wordToInt(a)));
    // Integer add/sub/mul/abs wrap two's-complement like the hardware
    // ALU; computing them on the unsigned Word keeps that defined.
    else if constexpr (OP == Opcode::Iadd)
        return a + b;
    else if constexpr (OP == Opcode::Isub)
        return a - b;
    else if constexpr (OP == Opcode::Iand)
        return a & b;
    else if constexpr (OP == Opcode::Ior)
        return a | b;
    else if constexpr (OP == Opcode::Ixor)
        return a ^ b;
    else if constexpr (OP == Opcode::Shl)
        return a << (b & 31);
    else if constexpr (OP == Opcode::Shr)
        return a >> (b & 31);
    else if constexpr (OP == Opcode::Sra)
        return intToWord(wordToInt(a) >> (b & 31));
    else if constexpr (OP == Opcode::Ilt)
        return wordToInt(a) < wordToInt(b) ? 1 : 0;
    else if constexpr (OP == Opcode::Ile)
        return wordToInt(a) <= wordToInt(b) ? 1 : 0;
    else if constexpr (OP == Opcode::Ieq)
        return wordToInt(a) == wordToInt(b) ? 1 : 0;
    else if constexpr (OP == Opcode::Imin)
        return intToWord(wordToInt(a) < wordToInt(b) ? wordToInt(a)
                                                     : wordToInt(b));
    else if constexpr (OP == Opcode::Imax)
        return intToWord(wordToInt(a) > wordToInt(b) ? wordToInt(a)
                                                     : wordToInt(b));
    else if constexpr (OP == Opcode::Iabs)
        return wordToInt(a) < 0 ? 0u - a : a;
    else if constexpr (OP == Opcode::Select)
        return a ? b : c;
    else if constexpr (OP == Opcode::Mov)
        return a;
    else if constexpr (OP == Opcode::Add16x2)
        return map16(a, b, u16add);
    else if constexpr (OP == Opcode::Sub16x2)
        return map16(a, b, u16sub);
    else if constexpr (OP == Opcode::Absd16x2)
        return map16(a, b, u16absd);
    else if constexpr (OP == Opcode::Min16x2)
        return map16(a, b, s16min);
    else if constexpr (OP == Opcode::Max16x2)
        return map16(a, b, s16max);
    else if constexpr (OP == Opcode::Shr16x2)
        return pack16(static_cast<uint16_t>(sub16(a, 1) >> (b & 15)),
                      static_cast<uint16_t>(sub16(a, 0) >> (b & 15)));
    else if constexpr (OP == Opcode::Hadd16x2)
        return intToWord(static_cast<int32_t>(static_cast<int16_t>(
                             sub16(a, 0))) +
                         static_cast<int16_t>(sub16(a, 1)));
    else if constexpr (OP == Opcode::Add8x4)
        return map8(a, b, u8add);
    else if constexpr (OP == Opcode::Sub8x4)
        return map8(a, b, u8sub);
    else if constexpr (OP == Opcode::Absd8x4)
        return map8(a, b, u8absd);
    else if constexpr (OP == Opcode::Hadd8x4)
        return sub8(a, 0) + sub8(a, 1) + sub8(a, 2) + sub8(a, 3);
    else if constexpr (OP == Opcode::Fmul)
        return floatToWord(wordToFloat(a) * wordToFloat(b));
    else if constexpr (OP == Opcode::Imul)
        return a * b;
    else if constexpr (OP == Opcode::Mul16x2)
        return map16(a, b, s16mul);
    else if constexpr (OP == Opcode::Dot16x2)
        // Each product fits in int32; only their sum can wrap.
        return intToWord(static_cast<int16_t>(sub16(a, 0)) *
                         static_cast<int16_t>(sub16(b, 0))) +
               intToWord(static_cast<int16_t>(sub16(a, 1)) *
                         static_cast<int16_t>(sub16(b, 1)));
    else if constexpr (OP == Opcode::Fdiv)
        return floatToWord(wordToFloat(a) / wordToFloat(b));
    else if constexpr (OP == Opcode::Fsqrt)
        return floatToWord(std::sqrt(wordToFloat(a)));
    else
        static_assert(OP == Opcode::Fadd,
                      "evalArithScalar: not a pure arithmetic opcode");
}

} // namespace imagine

#endif // IMAGINE_ISA_ARITH_INLINE_HH
