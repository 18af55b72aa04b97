/**
 * @file
 * Micro-op dispatch for the predecoded fast engine.
 *
 * dispatchUop() is the functional-execution switch of the per-core
 * fast engine (uarch::CoreModel::runQuantumFast): it expands the
 * inline handler definitions from isa/handlers.hh for the
 * register-only and plain memory opcodes — the very same functions
 * d.fn points at, so the dispatch routes cannot disagree — and falls
 * back to the handler table for the rare exclusive / halt cases,
 * where the indirect call is noise anyway.
 *
 * The caller must set out.nextPc = pc + 1 before dispatching (the
 * handlers only overwrite it for taken control flow).
 */

#ifndef GEMSTONE_ISA_DISPATCH_HH
#define GEMSTONE_ISA_DISPATCH_HH

#include "isa/handlers.hh"
#include "isa/predecode.hh"

namespace gemstone::isa {

inline void
dispatchUop(const DecodedOp &d, CpuState &state, const ExecEnv &env,
            OpOutcome &out)
{
    namespace h = handlers;
    switch (d.op) {
    case Opcode::Add: h::execAdd(d, state, env, out); break;
    case Opcode::Sub: h::execSub(d, state, env, out); break;
    case Opcode::And: h::execAnd(d, state, env, out); break;
    case Opcode::Orr: h::execOrr(d, state, env, out); break;
    case Opcode::Eor: h::execEor(d, state, env, out); break;
    case Opcode::Lsl: h::execLsl(d, state, env, out); break;
    case Opcode::Lsr: h::execLsr(d, state, env, out); break;
    case Opcode::Asr: h::execAsr(d, state, env, out); break;
    case Opcode::Mov: h::execMov(d, state, env, out); break;
    case Opcode::Movi:
        h::execMovi(d, state, env, out); break;
    case Opcode::Addi:
        h::execAddi(d, state, env, out); break;
    case Opcode::Subi:
        h::execSubi(d, state, env, out); break;
    case Opcode::Cmplt:
        h::execCmplt(d, state, env, out); break;
    case Opcode::Cmpeq:
        h::execCmpeq(d, state, env, out); break;
    case Opcode::Mul: h::execMul(d, state, env, out); break;
    case Opcode::Div: h::execDiv(d, state, env, out); break;
    case Opcode::Fadd:
        h::execFadd(d, state, env, out); break;
    case Opcode::Fsub:
        h::execFsub(d, state, env, out); break;
    case Opcode::Fmul:
        h::execFmul(d, state, env, out); break;
    case Opcode::Fdiv:
        h::execFdiv(d, state, env, out); break;
    case Opcode::Fsqrt:
        h::execFsqrt(d, state, env, out); break;
    case Opcode::Fmov:
        h::execFmov(d, state, env, out); break;
    case Opcode::Fmovi:
        h::execFmovi(d, state, env, out); break;
    case Opcode::Fcvt:
        h::execFcvt(d, state, env, out); break;
    case Opcode::Ficvt:
        h::execFicvt(d, state, env, out); break;
    case Opcode::Vadd:
        h::execVadd(d, state, env, out); break;
    case Opcode::Vmul:
        h::execVmul(d, state, env, out); break;
    case Opcode::Ldr: h::execLdr(d, state, env, out); break;
    case Opcode::Str: h::execStr(d, state, env, out); break;
    case Opcode::Ldrb:
        h::execLdrb(d, state, env, out); break;
    case Opcode::Strb:
        h::execStrb(d, state, env, out); break;
    case Opcode::Fldr:
        h::execFldr(d, state, env, out); break;
    case Opcode::Fstr:
        h::execFstr(d, state, env, out); break;
    case Opcode::B: h::execB(d, state, env, out); break;
    case Opcode::Beq: h::execBeq(d, state, env, out); break;
    case Opcode::Bne: h::execBne(d, state, env, out); break;
    case Opcode::Blt: h::execBlt(d, state, env, out); break;
    case Opcode::Bge: h::execBge(d, state, env, out); break;
    case Opcode::Bl: h::execBl(d, state, env, out); break;
    case Opcode::Ret:
    case Opcode::Bidx:
        h::execRetBidx(d, state, env, out); break;
    case Opcode::Nop:
        h::execNothing(d, state, env, out); break;
    default: d.fn(d, state, env, out); break;
    }
}

} // namespace gemstone::isa

#endif // GEMSTONE_ISA_DISPATCH_HH
